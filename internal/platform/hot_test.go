package platform

import (
	"context"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// wireEcho is an echo message with a binary form, so calls carrying it take
// the lazily encoded wrapper path.
type wireEcho struct{ Text string }

func (e *wireEcho) AppendWire(dst []byte) []byte { return wire.AppendString(dst, e.Text) }
func (e *wireEcho) DecodeWire(d *wire.Dec) error {
	s, err := d.String(1 << 16)
	e.Text = s
	return err
}

// stackEcho answers "fast" on the concurrent path and "slow" through the
// mailbox, each with the stack it was served on.
type stackEcho struct{}

func (stackEcho) HandleRequest(*Context, string, []byte) (any, error) {
	return &wireEcho{Text: string(debug.Stack())}, nil
}

func (s stackEcho) HandleConcurrent(ctx *Context, kind string, payload []byte) (any, bool, error) {
	if kind != "fast" {
		return nil, false, nil
	}
	body, err := s.HandleRequest(ctx, kind, payload)
	return body, true, err
}

// newTCPNodePair boots two nodes on loopback TCP links that know each other.
func newTCPNodePair(t *testing.T) (a, b *Node) {
	t.Helper()
	links := make([]*transport.TCP, 2)
	for i := range links {
		l, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		links[i] = l
	}
	links[0].AddRoute("b", links[1].ListenAddr())
	links[1].AddRoute("a", links[0].ListenAddr())
	nodes := make([]*Node, 2)
	for i, id := range []NodeID{"a", "b"} {
		n, err := NewNode(Config{ID: id, Link: links[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	return nodes[0], nodes[1]
}

// TestRemoteFastPathServedOnReadLoop: a remote request a ConcurrentBehavior
// accepts is answered on the connection's read loop, with no goroutine of its
// own; one it declines still reaches the mailbox.
func TestRemoteFastPathServedOnReadLoop(t *testing.T) {
	a, b := newTCPNodePair(t)
	if err := b.Launch("echo", stackEcho{}); err != nil {
		t.Fatal(err)
	}
	ctx := callCtx(t)
	var fast, slow wireEcho
	if err := a.CallAgent(ctx, "b", "echo", "fast", &wireEcho{}, &fast); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fast.Text, "readLoop") {
		t.Errorf("fast-path request was not served on the read loop:\n%s", fast.Text)
	}
	if err := a.CallAgent(ctx, "b", "echo", "slow", &wireEcho{}, &slow); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(slow.Text, "mailboxLoop") || strings.Contains(slow.Text, "readLoop") {
		t.Errorf("mailbox request was not served by the mailbox:\n%s", slow.Text)
	}
}

// TestRemoteFastPathWithServiceTimeLeavesReadLoop: a service time is charged
// by sleeping, which a read loop must not do.
func TestRemoteFastPathWithServiceTimeLeavesReadLoop(t *testing.T) {
	a, b := newTCPNodePair(t)
	if err := b.Launch("echo", stackEcho{}, WithServiceTime(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var fast wireEcho
	if err := a.CallAgent(callCtx(t), "b", "echo", "fast", &wireEcho{}, &fast); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fast.Text, "readLoop") {
		t.Errorf("a request with a service time to charge was served on the read loop:\n%s", fast.Text)
	}
}

// valueEcho answers "echo" for same-node callers by value and counts how
// often the codec path was used instead.
type valueEcho struct {
	concurrentEcho
}

func (v *valueEcho) AnswerLocal(_ context.Context, _ *Context, kind string, req, resp any) (bool, error) {
	in, ok := req.(*echoReq)
	out, ok2 := resp.(*echoResp)
	if kind != "echo" || !ok || !ok2 {
		return false, nil
	}
	out.Text = "by-value:" + in.Text
	return true, nil
}

// TestLocalAnswererSkipsCodec: a same-node call the behaviour answers by
// value never reaches HandleConcurrent or the mailbox; one it declines takes
// the ordinary path; both count as delivered fast-path requests.
func TestLocalAnswererSkipsCodec(t *testing.T) {
	n, sent := newCountingNode(t, Config{ID: "solo"})
	b := &valueEcho{}
	b.Tag = "codec"
	if err := n.Launch("echo", b); err != nil {
		t.Fatal(err)
	}
	ctx := callCtx(t)
	var resp echoResp
	if err := n.CallAgent(ctx, "solo", "echo", "echo", &echoReq{Text: "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "by-value:hi" || b.count() != 0 {
		t.Errorf("resp %q after %d codec-path requests, want the by-value answer and none", resp.Text, b.count())
	}
	// A request value AnswerLocal does not recognise goes through the codec.
	if err := n.CallAgent(ctx, "solo", "echo", "echo", echoReq{Text: "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "codec:hi" || b.count() != 1 {
		t.Errorf("resp %q after %d codec-path requests, want the codec answer and one", resp.Text, b.count())
	}
	if sent() != 0 {
		t.Errorf("%d envelopes sent for same-node calls", sent())
	}
}

// stuckMover is a Runner that moves to a node that accepts the transfer
// request and never answers it.
type stuckMover struct {
	Target  NodeID
	started chan struct{}
}

func (s *stuckMover) HandleRequest(*Context, string, []byte) (any, error) { return nil, nil }

func (s *stuckMover) Run(ctx *Context) error {
	close(s.started)
	return ctx.Move(context.Background(), s.Target)
}

// TestNodeCloseDoesNotWaitOutAMove: Close fails the calls its agents have in
// flight — here a Move whose destination will never answer — so it returns at
// once instead of at the call's deadline (this one has none).
func TestNodeCloseDoesNotWaitOutAMove(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	block, arrived := make(chan struct{}), make(chan struct{}, 1)
	hole, err := transport.NewPeer(net, "hole", func(context.Context, transport.Addr, string, []byte) (any, error) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	defer close(block)
	n, err := NewNode(Config{ID: "home", Link: net})
	if err != nil {
		t.Fatal(err)
	}
	RegisterBehavior(&stuckMover{})
	mover := &stuckMover{Target: "hole", started: make(chan struct{})}
	if err := n.Launch(ids.AgentID("mover"), mover); err != nil {
		t.Fatal(err)
	}
	<-mover.started
	select {
	case <-arrived: // the Move's transfer request is in flight
	case <-time.After(5 * time.Second):
		t.Fatal("the Move never reached its destination")
	}
	start := time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with an agent mid-move, want under 1s", d)
	}
}
