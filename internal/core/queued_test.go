package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// Tests for remote requests queued in a leaf's mailbox: the read loop pushes
// them there with a copy of their frame, and the mailbox loop, or the agent's
// stop, answers them — no goroutine waits for any of them.

// newBusyLeafPair deploys the mechanism on two nodes over loopback TCP: the
// HAgent and the one leaf, iagent-1, on node-0, whose clock is fake, and
// nothing but the LHAgent on node-1. The leaf is relaunched behind serialLeaf
// with a second of service time on that clock: every request to it goes from
// node-0's read loop straight onto its mailbox, as an update to a leaf
// without a service time does, and the request it serves holds the mailbox
// until the test advances the clock, so updates sent meanwhile queue behind
// it. received counts the updates node-0 has read off the wire.
func newBusyLeafPair(t *testing.T) (c *testCluster, leaf *IAgentBehavior, fake *clock.Fake, received func() uint64) {
	t.Helper()
	goroutinesReturn(t)
	fake = clock.NewFake(time.Unix(1000, 0))
	reg := metrics.New()
	links := make([]*transport.TCP, 2)
	for i := range links {
		l, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		links[i] = l
	}
	links[0].AddRoute("node-1", links[1].ListenAddr())
	links[1].AddRoute("node-0", links[0].ListenAddr())
	nodes := make([]*platform.Node, 2)
	for i := range nodes {
		pc := platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: links[i]}
		if i == 0 {
			pc.Clock, pc.Link = fake, transport.Instrument(links[0], reg)
		}
		n, err := platform.NewNode(pc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	releasesAll(t, nodes)
	cfg := quietConfig()
	cfg.PlacementNodes = []platform.NodeID{"node-0"}
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg = svc.Config()
	var hash GetHashResp
	if err := nodes[0].CallAgent(context.Background(), cfg.HAgentNode, cfg.HAgent, KindGetHash, GetHashReq{}, &hash); err != nil {
		t.Fatal(err)
	}
	leaf = &IAgentBehavior{Cfg: cfg, StateSnapshot: hash.State}
	if err := nodes[0].Kill("iagent-1"); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Launch("iagent-1", serialLeaf{leaf}, platform.WithServiceTime(time.Second)); err != nil {
		t.Fatal(err)
	}
	received = func() uint64 {
		return reg.Snapshot().Counter("agentloc_transport_envelopes_received_total", "kind", KindUpdate)
	}
	return &testCluster{nodes: nodes, service: svc}, leaf, fake, received
}

// serialLeaf is a leaf the platform sees as a plain Behavior: it serves
// everything through its mailbox.
type serialLeaf struct{ leaf *IAgentBehavior }

func (s serialLeaf) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	return s.leaf.HandleRequest(ctx, kind, payload)
}

// goUpdate sends u to iagent-1 from node-1 as a bare call, with no client
// loop to retry it, and hands back its outcome.
func goUpdate(c *testCluster, u UpdateReq) <-chan error {
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var ack Ack
		err := c.nodes[1].CallAgent(ctx, "node-0", "iagent-1", KindUpdate, u, &ack)
		if err == nil && ack.Status != StatusOK {
			err = fmt.Errorf("update of %s acknowledged %v", u.Agent, ack.Status)
		}
		done <- err
	}()
	return done
}

// waitReceived waits until node-0 has read n updates off the wire: the read
// loop has pushed every one before the last onto the mailbox.
func waitReceived(t *testing.T, received func() uint64, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); received() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("node-0 read %d updates, want %d", received(), n)
		}
	}
}

// keepAdvancing moves the fake clock a service time every millisecond, so
// every request the leaf takes up is served, until the returned stop is
// called; stop waits for the goroutine doing it.
func keepAdvancing(fake *clock.Fake) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
				fake.Advance(time.Second)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// within waits for ch, failing the test after ten seconds.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish", what)
		panic("unreachable")
	}
}

// TestQueuedUpdatesFailFastWhenLeafStops: updates queued behind the one a
// leaf is serving are each answered agent-not-found as soon as the leaf is
// killed or its node closed or crashed — the stop answers what its mailbox
// holds — not at their callers' deadlines. The one being served is answered
// once its service time is charged.
func TestQueuedUpdatesFailFastWhenLeafStops(t *testing.T) {
	stops := map[string]func(*platform.Node) error{
		"kill":  func(n *platform.Node) error { return n.Kill("iagent-1") },
		"close": func(n *platform.Node) error { return n.Close() },
		"crash": func(n *platform.Node) error { n.Crash(); return nil },
	}
	for _, name := range []string{"kill", "close", "crash"} {
		t.Run(name, func(t *testing.T) {
			c, _, fake, received := newBusyLeafPair(t)
			serving := goUpdate(c, UpdateReq{Agent: "q-00", Node: "node-1"})
			waitReceived(t, received, 1)
			queued := make([]<-chan error, 3)
			for i := range queued {
				queued[i] = goUpdate(c, UpdateReq{Agent: ids.AgentID(fmt.Sprintf("q-%02d", i+1)), Node: "node-1"})
			}
			waitReceived(t, received, 4)

			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				if err := stops[name](c.nodes[0]); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}()
			for i, q := range queued {
				if err := within(t, "a queued update", q); !platform.IsAgentNotFound(err) {
					t.Errorf("queued update %d ended with %v, want agent-not-found", i+1, err)
				}
			}
			stop := keepAdvancing(fake)
			defer stop()
			within(t, name, stopped)
			within(t, "the update being served", serving)
		})
	}
}

// TestPipelinedUpdatesKeepTheirIDs: two updates for different agents, the
// second read off the connection while the first is still queued, are each
// recorded under their own id — with their own node and capability set.
// The first one's frame is read through the buffer the second is then read
// into, so the queued request must own a copy of it; and its id is a view of
// that copy, which goes back to the pool once the update is served, so the
// capability set the leaf keeps must hold an id of its own. Later updates
// take the pooled copies again before the leaf is read.
func TestPipelinedUpdatesKeepTheirIDs(t *testing.T) {
	c, leaf, fake, received := newBusyLeafPair(t)
	calls := []<-chan error{goUpdate(c, UpdateReq{Agent: "p-00", Node: "node-1"})}
	waitReceived(t, received, 1)
	calls = append(calls, goUpdate(c, UpdateReq{Agent: "p-01", Node: "node-1", Capabilities: []string{"cap-1"}}))
	waitReceived(t, received, 2)
	calls = append(calls, goUpdate(c, UpdateReq{Agent: "p-02", Node: "node-0", Capabilities: []string{"cap-2"}}))
	waitReceived(t, received, 3)

	stop := keepAdvancing(fake)
	defer stop()
	for i, call := range calls {
		if err := within(t, "an update", call); err != nil {
			t.Errorf("update %d: %v", i, err)
		}
	}
	for i := 3; i < 12; i++ {
		if err := within(t, "an update", goUpdate(c, UpdateReq{Agent: ids.AgentID(fmt.Sprintf("p-%02d", i)), Node: "node-1"})); err != nil {
			t.Errorf("update %d: %v", i, err)
		}
	}

	for _, want := range []record{
		{agent: "p-01", node: "node-1", caps: []string{"cap-1"}},
		{agent: "p-02", node: "node-0", caps: []string{"cap-2"}},
	} {
		got, ok := leaf.leaf.get(want.agent)
		if !ok || got.node != want.node || !slices.Equal(got.caps, want.caps) {
			t.Errorf("%s is recorded as %+v, %v; want at %s with %v", want.agent, got, ok, want.node, want.caps)
		}
	}
	if n := leaf.leaf.table.Len(); n != 12 {
		t.Errorf("the leaf holds %d agents, want 12", n)
	}
}
