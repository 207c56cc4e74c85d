package platform

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/transport"
)

// echoBehavior replies to "echo" requests and counts handled requests.
type echoBehavior struct {
	Tag string

	mu      sync.Mutex
	handled int
}

type echoReq struct{ Text string }
type echoResp struct{ Text string }

func (e *echoBehavior) HandleRequest(ctx *Context, kind string, payload []byte) (any, error) {
	e.mu.Lock()
	e.handled++
	e.mu.Unlock()
	switch kind {
	case "echo":
		var req echoReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Text: e.Tag + ":" + req.Text}, nil
	case "whereami":
		return echoResp{Text: string(ctx.Node())}, nil
	case "fail":
		return nil, errors.New("requested failure")
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

func (e *echoBehavior) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.handled
}

// hopperBehavior carries gob-encodable roaming state; the mutex guards
// Visited between the Run and mailbox goroutines (unexported, so gob skips
// it).
type hopperBehavior struct {
	Route   []NodeID
	Visited []NodeID

	mu       sync.Mutex
	arrivals chan NodeID // local-only; nil after migration (gob skips it)
}

func (h *hopperBehavior) HandleRequest(ctx *Context, kind string, payload []byte) (any, error) {
	if kind == "visited" {
		h.mu.Lock()
		nodes := make([]NodeID, len(h.Visited))
		copy(nodes, h.Visited)
		h.mu.Unlock()
		return visitedResp{Nodes: nodes}, nil
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

type visitedResp struct{ Nodes []NodeID }

func (h *hopperBehavior) Run(ctx *Context) error {
	h.mu.Lock()
	h.Visited = append(h.Visited, ctx.Node())
	h.mu.Unlock()
	if h.arrivals != nil {
		h.arrivals <- ctx.Node()
	}
	if len(h.Route) == 0 {
		return nil
	}
	next := h.Route[0]
	h.Route = h.Route[1:]
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return ctx.Move(cctx, next)
}

var _ Runner = (*hopperBehavior)(nil)

func newTestNodes(t *testing.T, names ...NodeID) map[NodeID]*Node {
	t.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make(map[NodeID]*Node, len(names))
	for _, name := range names {
		n, err := NewNode(Config{ID: name, Link: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[name] = n
	}
	return nodes
}

func callCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestLaunchAndCall(t *testing.T) {
	nodes := newTestNodes(t, "n1", "n2")
	if err := nodes["n1"].Launch("e1", &echoBehavior{Tag: "a"}); err != nil {
		t.Fatal(err)
	}
	var resp echoResp
	if err := nodes["n2"].CallAgent(callCtx(t), "n1", "e1", "echo", echoReq{Text: "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "a:hi" {
		t.Errorf("resp = %q", resp.Text)
	}
}

func TestCallLocalAgent(t *testing.T) {
	nodes := newTestNodes(t, "n1")
	if err := nodes["n1"].Launch("e1", &echoBehavior{Tag: "x"}); err != nil {
		t.Fatal(err)
	}
	var resp echoResp
	if err := nodes["n1"].CallAgent(callCtx(t), "n1", "e1", "whereami", nil, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "n1" {
		t.Errorf("whereami = %q", resp.Text)
	}
}

func TestAgentErrorPropagates(t *testing.T) {
	nodes := newTestNodes(t, "n1")
	if err := nodes["n1"].Launch("e1", &echoBehavior{}); err != nil {
		t.Fatal(err)
	}
	err := nodes["n1"].CallAgent(callCtx(t), "n1", "e1", "fail", nil, nil)
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *RemoteError", err)
	}
	if re.Msg != "requested failure" {
		t.Errorf("Msg = %q", re.Msg)
	}
}

func TestAgentNotFound(t *testing.T) {
	nodes := newTestNodes(t, "n1", "n2")
	err := nodes["n2"].CallAgent(callCtx(t), "n1", "ghost", "echo", echoReq{}, nil)
	if !IsAgentNotFound(err) {
		t.Errorf("error = %v, want agent-not-found", err)
	}
}

func TestIsAgentNotFoundLocalError(t *testing.T) {
	if !IsAgentNotFound(fmt.Errorf("wrap: %w", ErrAgentNotFound)) {
		t.Error("wrapped ErrAgentNotFound not detected")
	}
	if IsAgentNotFound(errors.New("other")) {
		t.Error("unrelated error detected as agent-not-found")
	}
}

func TestDuplicateLaunch(t *testing.T) {
	nodes := newTestNodes(t, "n1")
	if err := nodes["n1"].Launch("e1", &echoBehavior{}); err != nil {
		t.Fatal(err)
	}
	if err := nodes["n1"].Launch("e1", &echoBehavior{}); !errors.Is(err, ErrAgentExists) {
		t.Errorf("error = %v, want ErrAgentExists", err)
	}
}

func TestLaunchValidation(t *testing.T) {
	nodes := newTestNodes(t, "n1")
	if err := nodes["n1"].Launch("", &echoBehavior{}); err == nil {
		t.Error("empty id accepted")
	}
	if err := nodes["n1"].Launch("x", nil); err == nil {
		t.Error("nil behavior accepted")
	}
}

func TestKill(t *testing.T) {
	nodes := newTestNodes(t, "n1")
	if err := nodes["n1"].Launch("e1", &echoBehavior{}); err != nil {
		t.Fatal(err)
	}
	if !nodes["n1"].Hosts("e1") {
		t.Fatal("agent not hosted after launch")
	}
	if err := nodes["n1"].Kill("e1"); err != nil {
		t.Fatal(err)
	}
	if nodes["n1"].Hosts("e1") {
		t.Error("agent still hosted after kill")
	}
	if err := nodes["n1"].Kill("e1"); !errors.Is(err, ErrAgentNotFound) {
		t.Errorf("double kill error = %v, want ErrAgentNotFound", err)
	}
	err := nodes["n1"].CallAgent(callCtx(t), "n1", "e1", "echo", echoReq{}, nil)
	if !IsAgentNotFound(err) {
		t.Errorf("call after kill = %v, want agent-not-found", err)
	}
}

func TestPing(t *testing.T) {
	nodes := newTestNodes(t, "n1", "n2")
	if err := nodes["n1"].Ping(callCtx(t), "n2"); err != nil {
		t.Fatal(err)
	}
}

func TestServiceTimeSerializesRequests(t *testing.T) {
	nodes := newTestNodes(t, "n1")
	const svc = 20 * time.Millisecond
	if err := nodes["n1"].Launch("slow", &echoBehavior{}, WithServiceTime(svc)); err != nil {
		t.Fatal(err)
	}
	const parallel = 5
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp echoResp
			_ = nodes["n1"].CallAgent(callCtx(t), "n1", "slow", "echo", echoReq{Text: "x"}, &resp)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < parallel*svc {
		t.Errorf("%d parallel requests finished in %v; serial mailbox should take ≥ %v",
			parallel, elapsed, parallel*svc)
	}
}

func TestQueueLen(t *testing.T) {
	nodes := newTestNodes(t, "n1")
	if err := nodes["n1"].Launch("slow", &echoBehavior{}, WithServiceTime(50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		go func() {
			_ = nodes["n1"].CallAgent(callCtx(t), "n1", "slow", "echo", echoReq{}, nil)
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for nodes["n1"].QueueLen("slow") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if nodes["n1"].QueueLen("slow") == 0 {
		t.Error("queue never grew despite slow service")
	}
	if nodes["n1"].QueueLen("ghost") != 0 {
		t.Error("QueueLen for unknown agent != 0")
	}
}

func TestAgentMigration(t *testing.T) {
	RegisterBehavior(&hopperBehavior{})
	nodes := newTestNodes(t, "n1", "n2", "n3")
	arrivals := make(chan NodeID, 3)
	h := &hopperBehavior{Route: []NodeID{"n2", "n3"}, arrivals: arrivals}
	if err := nodes["n1"].Launch("hopper", h); err != nil {
		t.Fatal(err)
	}
	// Only the first arrival is observable via the channel (gob drops it);
	// poll the nodes for the agent's final position.
	select {
	case at := <-arrivals:
		if at != "n1" {
			t.Errorf("first arrival at %s, want n1", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent never started")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !nodes["n3"].Hosts("hopper") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !nodes["n3"].Hosts("hopper") {
		t.Fatal("agent did not arrive at n3")
	}
	if nodes["n1"].Hosts("hopper") || nodes["n2"].Hosts("hopper") {
		t.Error("agent present at multiple nodes")
	}
	// Migrated state: the visited log survived two hops. The arrival is
	// recorded by the Run goroutine, which may still be scheduling when
	// the agent first becomes reachable — poll briefly.
	want := []NodeID{"n1", "n2", "n3"}
	var resp visitedResp
	for time.Now().Before(deadline) {
		if err := nodes["n1"].CallAgent(callCtx(t), "n3", "hopper", "visited", nil, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Nodes) == len(want) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(resp.Nodes) != len(want) {
		t.Fatalf("visited = %v, want %v", resp.Nodes, want)
	}
	for i := range want {
		if resp.Nodes[i] != want[i] {
			t.Errorf("visited[%d] = %s, want %s", i, resp.Nodes[i], want[i])
		}
	}
}

func TestMoveToSelfIsNoOp(t *testing.T) {
	RegisterBehavior(&hopperBehavior{})
	nodes := newTestNodes(t, "n1")
	arrivals := make(chan NodeID, 2)
	h := &hopperBehavior{Route: []NodeID{"n1"}, arrivals: arrivals}
	if err := nodes["n1"].Launch("hopper", h); err != nil {
		t.Fatal(err)
	}
	<-arrivals
	time.Sleep(20 * time.Millisecond)
	if !nodes["n1"].Hosts("hopper") {
		t.Error("agent vanished after self-move")
	}
}

func TestMoveNonRunnerRejected(t *testing.T) {
	nodes := newTestNodes(t, "n1", "n2")
	b := &echoBehavior{}
	if err := nodes["n1"].Launch("e1", b); err != nil {
		t.Fatal(err)
	}
	// Reach into the hosted context the way a behaviour callback would.
	nodes["n1"].mu.Lock()
	h := nodes["n1"].agents["e1"]
	nodes["n1"].mu.Unlock()
	err := h.plain.Move(callCtx(t), "n2")
	if !errors.Is(err, ErrNotRunner) {
		t.Errorf("error = %v, want ErrNotRunner", err)
	}
}

func TestLaunchAt(t *testing.T) {
	RegisterBehavior(&echoBehavior{})
	nodes := newTestNodes(t, "n1", "n2")
	if err := nodes["n1"].LaunchAt(callCtx(t), "n2", "remote", &echoBehavior{Tag: "r"}, 0); err != nil {
		t.Fatal(err)
	}
	if !nodes["n2"].Hosts("remote") {
		t.Fatal("agent not hosted at n2")
	}
	var resp echoResp
	if err := nodes["n1"].CallAgent(callCtx(t), "n2", "remote", "echo", echoReq{Text: "y"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "r:y" {
		t.Errorf("resp = %q", resp.Text)
	}
	// LaunchAt to self takes the local path.
	if err := nodes["n1"].LaunchAt(callCtx(t), "n1", "local", &echoBehavior{Tag: "l"}, 0); err != nil {
		t.Fatal(err)
	}
	if !nodes["n1"].Hosts("local") {
		t.Error("agent not hosted locally")
	}
}

func TestNodeCloseStopsAgents(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	n, err := NewNode(Config{ID: "n1", Link: net})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Launch("e1", &echoBehavior{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := n.Launch("e2", &echoBehavior{}); !errors.Is(err, ErrNodeClosed) {
		t.Errorf("Launch after close = %v, want ErrNodeClosed", err)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	if _, err := NewNode(Config{ID: "", Link: net}); err == nil {
		t.Error("empty node id accepted")
	}
	if _, err := NewNode(Config{ID: "x", Link: nil}); err == nil {
		t.Error("nil link accepted")
	}
}

func TestConcurrentCallsToManyAgents(t *testing.T) {
	nodes := newTestNodes(t, "n1", "n2")
	const agents = 10
	for i := 0; i < agents; i++ {
		id := ids.AgentID(fmt.Sprintf("e%d", i))
		if err := nodes["n1"].Launch(id, &echoBehavior{Tag: string(id)}); err != nil {
			t.Fatal(err)
		}
	}
	var failures atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < agents; i++ {
		for j := 0; j < 20; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				id := ids.AgentID(fmt.Sprintf("e%d", i))
				var resp echoResp
				want := fmt.Sprintf("e%d:m%d", i, j)
				err := nodes["n2"].CallAgent(callCtx(t), "n1", id, "echo", echoReq{Text: fmt.Sprintf("m%d", j)}, &resp)
				if err != nil || resp.Text != want {
					failures.Add(1)
				}
			}(i, j)
		}
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Errorf("%d failed calls", failures.Load())
	}
}
