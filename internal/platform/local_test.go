package platform

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// Tests for same-node calls: through the node's own peer without the link, or
// answered in place by a LocalAnswerer.

// newCountingNode runs a node on an instrumented link, the way a deployment
// does, and returns the count of envelopes the node has handed to it.
func newCountingNode(t *testing.T, cfg Config) (*Node, func() uint64) {
	t.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	reg := metrics.New()
	cfg.Link = transport.Instrument(net, reg)
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, func() uint64 { return reg.Snapshot().Counter("agentloc_transport_envelopes_sent_total") }
}

// concurrentEcho serves "echo" on the fast path and everything else through
// the mailbox, so one agent exercises both halves of handleInline.
type concurrentEcho struct{ echoBehavior }

func (c *concurrentEcho) HandleConcurrent(ctx *Context, kind string, payload []byte) (any, bool, error) {
	if kind != "echo" {
		return nil, false, nil
	}
	body, err := c.HandleRequest(ctx, kind, payload)
	return body, true, err
}

func TestLocalCallSendsNoEnvelope(t *testing.T) {
	n, sent := newCountingNode(t, Config{ID: "n1"})
	if err := n.Launch("serial", &echoBehavior{Tag: "s"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Launch("fast", &concurrentEcho{echoBehavior{Tag: "f"}}); err != nil {
		t.Fatal(err)
	}
	for agent, want := range map[ids.AgentID]string{"serial": "s:hi", "fast": "f:hi"} {
		var resp echoResp
		if err := n.CallAgent(callCtx(t), "n1", agent, "echo", echoReq{Text: "hi"}, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Text != want {
			t.Errorf("%s: resp = %q, want %q", agent, resp.Text, want)
		}
	}
	if got := sent(); got != 0 {
		t.Errorf("same-node calls sent %d envelopes, want 0", got)
	}
}

// TestLocalCallCostsTransportNothing: a same-node call — served through the
// mailbox, on the fast path, or given up on in the mailbox at its deadline —
// is no RPC: it records no latency sample and no timeout. The same node's
// calls to another node record both, so the series are live.
func TestLocalCallCostsTransportNothing(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	reg := metrics.New()
	nodes := make(map[NodeID]*Node)
	for _, id := range []NodeID{"n1", "n2"} {
		n, err := NewNode(Config{ID: id, Link: net, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[id] = n
	}
	n := nodes["n1"]
	stuck := func(at NodeID) {
		b := &blockingBehavior{entered: make(chan struct{}, 1), release: make(chan struct{})}
		if err := nodes[at].Launch("stuck", b); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { close(b.release) }) // before the nodes' Close
	}
	stuck("n1")
	stuck("n2")
	if err := n.Launch("serial", &echoBehavior{Tag: "s"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Launch("fast", &concurrentEcho{echoBehavior{Tag: "f"}}); err != nil {
		t.Fatal(err)
	}
	within := func(d time.Duration, at NodeID, agent ids.AgentID) error {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		var resp echoResp
		return n.CallAgent(ctx, at, agent, "echo", echoReq{Text: "hi"}, &resp)
	}
	rpcs := func() (latency, timeouts uint64) {
		snap := reg.Snapshot()
		return snap.HistogramSnap("agentloc_transport_rpc_latency_seconds").Count,
			snap.Counter("agentloc_transport_rpc_timeouts_total")
	}

	for _, agent := range []ids.AgentID{"serial", "fast"} {
		if err := within(5*time.Second, "n1", agent); err != nil {
			t.Fatalf("%s: %v", agent, err)
		}
	}
	if err := within(20*time.Millisecond, "n1", "stuck"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("same-node call to a stuck mailbox = %v, want its deadline", err)
	}
	if lat, tmo := rpcs(); lat != 0 || tmo != 0 {
		t.Errorf("same-node calls recorded %d RPC latencies and %d RPC timeouts, want none", lat, tmo)
	}

	if err := within(5*time.Second, "n2", "serial"); !IsAgentNotFound(err) {
		t.Fatalf("remote call to a missing agent = %v, want agent-not-found", err)
	}
	if err := within(20*time.Millisecond, "n2", "stuck"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("remote call to a stuck mailbox = %v, want its deadline", err)
	}
	if lat, tmo := rpcs(); lat != 1 || tmo != 1 {
		t.Errorf("one answered and one expired remote call recorded %d RPC latencies and %d RPC timeouts, want 1 and 1", lat, tmo)
	}
}

// blockingBehavior parks every request until released.
type blockingBehavior struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBehavior) HandleRequest(*Context, string, []byte) (any, error) {
	b.entered <- struct{}{}
	<-b.release
	return nil, nil
}

func TestLocalCallHonoursDeadlineInMailbox(t *testing.T) {
	n, _ := newCountingNode(t, Config{ID: "n1"})
	b := &blockingBehavior{entered: make(chan struct{}, 1), release: make(chan struct{})}
	if err := n.Launch("stuck", b); err != nil {
		t.Fatal(err)
	}
	// Closing release (registered after the node's Close, so run before it)
	// lets the parked handler finish so the node can shut down.
	t.Cleanup(func() { close(b.release) })

	// The first call occupies the mailbox loop; the second is parked behind it.
	first := make(chan error, 1)
	go func() { first <- n.CallAgent(context.Background(), "n1", "stuck", "x", nil, nil) }()
	<-b.entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := n.CallAgent(ctx, "n1", "stuck", "x", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked call = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("parked call took %v to honour a 20ms deadline", d)
	}
	select {
	case err := <-first:
		t.Fatalf("in-flight call returned early: %v", err)
	default:
	}
}

// A fast-path request with a service time is charged on a goroutine of its
// own, which the caller's deadline does not reach; the deadline cuts the
// caller's wait for the answer short.
func TestLocalCallHonoursDeadlineInServiceTime(t *testing.T) {
	n, _ := newCountingNode(t, Config{ID: "n1"})
	if err := n.Launch("slow", &concurrentEcho{echoBehavior{Tag: "s"}}, WithServiceTime(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := n.CallAgent(ctx, "n1", "slow", "echo", echoReq{Text: "hi"}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("call took %v to honour a 20ms deadline", d)
	}
}

func TestLocalCallErrorShapes(t *testing.T) {
	n, _ := newCountingNode(t, Config{ID: "n1"})
	if err := n.Launch("e1", &echoBehavior{}); err != nil {
		t.Fatal(err)
	}
	if err := n.CallAgent(callCtx(t), "n1", "ghost", "echo", echoReq{}, nil); !IsAgentNotFound(err) {
		t.Errorf("missing agent: %v, want agent-not-found", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.CallAgent(callCtx(t), "n1", "e1", "echo", echoReq{}, nil); !errors.Is(err, ErrNodeClosed) {
		t.Errorf("after Close: %v, want ErrNodeClosed", err)
	}

	crashed, _ := newCountingNode(t, Config{ID: "n2"})
	if err := crashed.Launch("e1", &echoBehavior{}); err != nil {
		t.Fatal(err)
	}
	crashed.Crash()
	if err := crashed.CallAgent(callCtx(t), "n2", "e1", "echo", echoReq{}, nil); !errors.Is(err, ErrNodeClosed) {
		t.Errorf("after Crash: %v, want ErrNodeClosed", err)
	}
}

type sliceMsg struct {
	Words []string
	Raw   []byte
}

// hoarder keeps what it decoded and what it answered, and scribbles on the
// answer after returning it.
type hoarder struct {
	mu      sync.Mutex
	lastReq sliceMsg
	lastRes *sliceMsg
}

func (h *hoarder) HandleRequest(_ *Context, _ string, payload []byte) (any, error) {
	var req sliceMsg
	if err := transport.Decode(payload, &req); err != nil {
		return nil, err
	}
	res := &sliceMsg{Words: []string{"answer"}, Raw: []byte("answer")}
	h.mu.Lock()
	h.lastReq, h.lastRes = req, res
	h.mu.Unlock()
	return res, nil
}

func TestLocalCallSharesNoMemory(t *testing.T) {
	n, _ := newCountingNode(t, Config{ID: "n1"})
	h := &hoarder{}
	if err := n.Launch("h", h); err != nil {
		t.Fatal(err)
	}
	req := sliceMsg{Words: []string{"question"}, Raw: []byte("question")}
	var resp sliceMsg
	if err := n.CallAgent(callCtx(t), "n1", "h", "ask", &req, &resp); err != nil {
		t.Fatal(err)
	}
	// Each side now mutates what it holds.
	req.Words[0], req.Raw[0] = "mutated", 'X'
	h.mu.Lock()
	h.lastRes.Words[0], h.lastRes.Raw[0] = "mutated", 'X'
	kept := h.lastReq
	h.mu.Unlock()

	if kept.Words[0] != "question" || string(kept.Raw) != "question" {
		t.Errorf("behaviour's request copy saw the caller's mutation: %+v", kept)
	}
	if resp.Words[0] != "answer" || string(resp.Raw) != "answer" {
		t.Errorf("caller's response saw the behaviour's mutation: %+v", resp)
	}
}

func TestLocalCallRecordsServerSpanWithoutHop(t *testing.T) {
	rec := trace.NewRecorder("n1", 64, 1)
	n, _ := newCountingNode(t, Config{ID: "n1", Tracer: rec})
	if err := n.Launch("e1", &echoBehavior{}); err != nil {
		t.Fatal(err)
	}
	root := rec.StartRoot("client", "op")
	ctx := trace.ContextWith(callCtx(t), root.Context())
	if err := n.CallAgent(ctx, "n1", "e1", "echo", echoReq{Text: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	root.End(nil)

	var server *trace.Span
	for _, s := range rec.Snapshot() {
		if s.Tier == "server" {
			server = &s
		}
	}
	if server == nil {
		t.Fatal("no server span recorded for the local call")
	}
	if server.TraceID != root.TraceID() || server.Parent != root.Context().SpanID {
		t.Errorf("server span %+v is not a child of the caller's span %+v", *server, root.Context())
	}
	if server.Name != "echo" {
		t.Errorf("server span name = %q, want the request kind", server.Name)
	}
	if server.Hop != root.Context().Hop {
		t.Errorf("local delivery charged a hop: span hop %d, caller hop %d", server.Hop, root.Context().Hop)
	}
}
