package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// newTCPCluster deploys the mechanism over real TCP links, one per node,
// fully meshed. mut (optional) adjusts each link's TCPConfig before dialing
// — the hook through which tests attach fault injectors and tighten
// timeouts.
func newTCPCluster(t *testing.T, cfg Config, numNodes int, mut func(i int, tc *transport.TCPConfig)) (*testCluster, []*transport.TCP) {
	t.Helper()
	goroutinesReturn(t)
	links := make([]*transport.TCP, numNodes)
	for i := range links {
		tc := transport.TCPConfig{ListenOn: "127.0.0.1:0"}
		if mut != nil {
			mut(i, &tc)
		}
		l, err := transport.NewTCP(tc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		links[i] = l
	}
	nodes := make([]*platform.Node, numNodes)
	tracers := make([]*trace.Recorder, numNodes)
	for i := range nodes {
		id := platform.NodeID(fmt.Sprintf("node-%d", i))
		for j, l := range links {
			if j != i {
				links[i].AddRoute(platform.NodeID(fmt.Sprintf("node-%d", j)).Addr(), l.ListenAddr())
			}
		}
		tracers[i] = trace.NewRecorder(string(id), 1024, 1)
		n, err := platform.NewNode(platform.Config{ID: id, Link: links[i], Tracer: tracers[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	releasesAll(t, nodes)
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{nodes: nodes, service: svc, tracers: tracers}, links
}

func TestLocateStalledPeerHonorsContextDeadline(t *testing.T) {
	// The ISSUE's acceptance scenario: a peer that accepts connections but
	// never reads must cost a Locate its context deadline, not the OS
	// connect/write stall (~2 minutes) — and traffic to healthy peers on
	// the same link must keep flowing while the stalled call waits.
	f := transport.NewFaults()
	c, links := newTCPCluster(t, quietConfig(), 2, func(i int, tc *transport.TCPConfig) {
		if i == 1 {
			tc.Faults = f
			tc.WriteTimeout = time.Second
		}
	})

	// The HAgent and the initial IAgent live on node-0, so every protocol
	// call from node-1 (past its loopback LHAgent) crosses the faulted
	// link.
	ctx := testCtx(t)
	if _, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "stall-target"); err != nil {
		t.Fatal(err)
	}
	remote := c.service.ClientFor(c.nodes[1])
	if _, err := remote.Locate(ctx, "stall-target"); err != nil {
		t.Fatalf("locate before the stall: %v", err)
	}

	// A healthy bystander reachable over the same (faulted) link, and a
	// caller on that link besides node-1's own peer.
	healthy, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	pong, err := transport.NewPeer(healthy, "healthy", func(context.Context, transport.Addr, string, []byte) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pong.Close()
	links[1].AddRoute("healthy", healthy.ListenAddr())
	bystander, err := transport.NewPeer(links[1], "bystander", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	f.StallWritesTo(links[0].ListenAddr(), true)

	lctx, lcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer lcancel()
	locateDone := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := remote.Locate(lctx, "stall-target")
		locateDone <- err
	}()

	// While the Locate is wedged against the stalled peer, the same link
	// carries a call to the healthy one and its answer promptly.
	time.Sleep(50 * time.Millisecond)
	pctx, pcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer pcancel()
	if err := bystander.Call(pctx, "healthy", "ping", nil, nil); err != nil {
		t.Fatalf("healthy peer starved while another peer stalled: %v", err)
	}

	select {
	case err := <-locateDone:
		if err == nil {
			t.Fatal("locate through a stalled peer succeeded")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("locate returned after %v, want ~its 300ms context deadline", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("locate through a stalled peer never returned")
	}

	// Once the peer recovers, the dropped connection is redialed and the
	// same client converges again.
	f.StallWritesTo(links[0].ListenAddr(), false)
	eventually(t, 20*time.Second, func(ctx context.Context) error {
		_, err := remote.Locate(ctx, "stall-target")
		return err
	})
}

func TestLocateSurvivesConnectionReset(t *testing.T) {
	// Connections torn down mid-run (peer crash, RST) must be absorbed by
	// the transport's redial/resend path plus the §4.3 retry loop — the
	// client keeps its answer without manual intervention.
	f := transport.NewFaults()
	c, _ := newTCPCluster(t, quietConfig(), 2, func(i int, tc *transport.TCPConfig) {
		if i == 1 {
			tc.Faults = f
			tc.RedialBackoff = time.Millisecond
		}
	})

	ctx := testCtx(t)
	if _, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "reset-target"); err != nil {
		t.Fatal(err)
	}
	remote := c.service.ClientFor(c.nodes[1])
	where, err := remote.Locate(ctx, "reset-target")
	if err != nil {
		t.Fatal(err)
	}
	if where != c.nodes[0].ID() {
		t.Fatalf("located at %s, want %s", where, c.nodes[0].ID())
	}

	f.ResetAll()
	eventually(t, 20*time.Second, func(ctx context.Context) error {
		got, err := remote.Locate(ctx, "reset-target")
		if err != nil {
			return err
		}
		if got != c.nodes[0].ID() {
			return fmt.Errorf("located at %s after reset, want %s", got, c.nodes[0].ID())
		}
		return nil
	})
}

func TestClientCallTimeoutBoundsLostReplies(t *testing.T) {
	// Regression: a client driven with a deadline-less context (workload
	// launchers do this) used to hang forever when a reply was dropped.
	// Config.CallTimeout must bound each protocol RPC on its own.
	cfg := quietConfig()
	cfg.CallTimeout = 300 * time.Millisecond
	c, net := newLossyCluster(t, cfg, 2, 0)

	ctx := testCtx(t)
	if _, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "lost-reply"); err != nil {
		t.Fatal(err)
	}
	remote := c.service.ClientFor(c.nodes[1])
	if _, err := remote.Locate(ctx, "lost-reply"); err != nil {
		t.Fatal(err)
	}

	net.SetDropProb(1.0)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := remote.Locate(context.Background(), "lost-reply")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("locate succeeded with every message dropped")
		}
		if elapsed := time.Since(start); elapsed > 20*time.Second {
			t.Fatalf("deadline-less locate took %v, want bounded by CallTimeout and the retry budget", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadline-less locate hung despite CallTimeout")
	}

	net.SetDropProb(0)
	eventually(t, 20*time.Second, func(ctx context.Context) error {
		_, err := remote.Locate(ctx, "lost-reply")
		return err
	})
}

func TestLocateConvergesAfterDropHeal(t *testing.T) {
	// Total loss, then heal: during the outage operations fail within their
	// deadlines; after it, a single Locate (whose internal §4.3 loop allows
	// maxProtocolRetries rounds) converges without external retries.
	c, net := newLossyCluster(t, quietConfig(), 3, 0)

	ctx := testCtx(t)
	client0 := c.service.ClientFor(c.nodes[0])
	if _, err := client0.Register(ctx, "heal-target"); err != nil {
		t.Fatal(err)
	}
	remote := c.service.ClientFor(c.nodes[2])
	if _, err := remote.Locate(ctx, "heal-target"); err != nil {
		t.Fatal(err)
	}

	net.SetDropProb(1.0)
	octx, ocancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	start := time.Now()
	_, err := remote.Locate(octx, "heal-target")
	ocancel()
	if err == nil {
		t.Fatal("locate succeeded with every message dropped")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("locate under total loss returned after %v, want ~its 400ms deadline", elapsed)
	}

	net.SetDropProb(0)
	hctx, hcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer hcancel()
	where, err := remote.Locate(hctx, "heal-target")
	if err != nil {
		t.Fatalf("locate after heal: %v", err)
	}
	if where != c.nodes[0].ID() {
		t.Fatalf("located at %s after heal, want %s", where, c.nodes[0].ID())
	}
}

// TestTraceSpansCloseOnTCPStall arms the write-stall fault mid-run: the
// locate that times out against the stalled peer must leave a fully closed
// span tree behind, with the error status on the root and on the RPC
// attempt that hit the stall. This is what makes /trace useful during an
// incident — the wedged requests are the ones worth inspecting.
func TestTraceSpansCloseOnTCPStall(t *testing.T) {
	f := transport.NewFaults()
	cfg := quietConfig()
	cfg.RetryBackoffBase = time.Millisecond
	cfg.RetryBackoffMax = 2 * time.Millisecond
	c, links := newTCPCluster(t, cfg, 2, func(i int, tc *transport.TCPConfig) {
		if i == 1 {
			tc.Faults = f
			tc.WriteTimeout = time.Second
		}
	})
	ctx := testCtx(t)
	if _, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "stall-traced"); err != nil {
		t.Fatal(err)
	}
	remote := c.service.ClientFor(c.nodes[1])
	if _, err := remote.Locate(ctx, "stall-traced"); err != nil {
		t.Fatalf("locate before the stall: %v", err)
	}

	f.StallWritesTo(links[0].ListenAddr(), true)
	defer f.StallWritesTo(links[0].ListenAddr(), false)

	lctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := remote.Locate(lctx, "stall-traced"); err == nil {
		t.Fatal("locate through a stalled peer succeeded")
	}

	spans := c.tracers[1].Snapshot()
	traceID := trace.LatestClientTraceID(spans)
	roots := trace.Assemble(spans, traceID)
	if len(roots) != 1 {
		t.Fatalf("assembled %d roots, want 1", len(roots))
	}
	root := roots[0]
	if root.Span.Name != "locate" || root.Span.Err == "" {
		t.Errorf("stalled locate's root = name %q err %q, want an error status", root.Span.Name, root.Span.Err)
	}
	for _, ch := range root.Children {
		if ch.Span.Name == "iagent.locate" && ch.Span.Err == "" {
			t.Errorf("RPC attempt against the stalled peer closed without error: %+v", ch.Span)
		}
	}
}

// TestTraceSpansCloseOnConnectionReset kills every TCP connection while a
// traced locate is in flight; whether the attempt errors or the transparent
// redial saves it, the recorder must end up with only closed spans and a
// root whose status matches the operation's outcome.
func TestTraceSpansCloseOnConnectionReset(t *testing.T) {
	f := transport.NewFaults()
	cfg := quietConfig()
	cfg.RetryBackoffBase = time.Millisecond
	cfg.RetryBackoffMax = 2 * time.Millisecond
	c, _ := newTCPCluster(t, cfg, 2, func(i int, tc *transport.TCPConfig) {
		if i == 1 {
			tc.Faults = f
		}
	})
	ctx := testCtx(t)
	if _, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "reset-traced"); err != nil {
		t.Fatal(err)
	}
	remote := c.service.ClientFor(c.nodes[1])
	if _, err := remote.Locate(ctx, "reset-traced"); err != nil {
		t.Fatalf("locate before the reset: %v", err)
	}

	f.ResetAll()
	where, err := remote.Locate(ctx, "reset-traced")
	if err != nil {
		t.Fatalf("locate after reset (transparent resend should cover this): %v", err)
	}
	if where != "node-0" {
		t.Fatalf("located at %s, want node-0", where)
	}

	spans := c.tracers[1].Snapshot()
	traceID := trace.LatestClientTraceID(spans)
	roots := trace.Assemble(spans, traceID)
	if len(roots) != 1 {
		t.Fatalf("assembled %d roots, want 1", len(roots))
	}
	if roots[0].Span.Err != "" {
		t.Errorf("recovered locate's root carries error %q", roots[0].Span.Err)
	}
}

// TestTCPClusterOpsSurviveResetAll runs every hot-path operation — register,
// locate, a move reported by a third node, a residence group's Join and MoveTo
// — between three nodes over real TCP, then tears down every cached
// connection: the links redial and the calls come good again.
func TestTCPClusterOpsSurviveResetAll(t *testing.T) {
	f := transport.NewFaults()
	c, _ := newTCPCluster(t, quietConfig(), 3, func(i int, tc *transport.TCPConfig) {
		tc.Faults = f
		tc.RedialBackoff = time.Millisecond
	})
	ctx := testCtx(t)
	first := c.service.ClientFor(c.nodes[0])
	bystander := c.service.ClientFor(c.nodes[1])
	last := c.service.ClientFor(c.nodes[2])

	// Registrations land on two nodes; locates cross between them in both
	// directions.
	assignFirst, err := first.Register(ctx, "ops-first")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := last.Register(ctx, "ops-last"); err != nil {
		t.Fatal(err)
	}
	if got, err := last.Locate(ctx, "ops-first"); err != nil || got != c.nodes[0].ID() {
		t.Fatalf("locate from node-2 = %v at %s, want %s", err, got, c.nodes[0].ID())
	}
	if got, err := first.Locate(ctx, "ops-last"); err != nil || got != c.nodes[2].ID() {
		t.Fatalf("locate from node-0 = %v at %s, want %s", err, got, c.nodes[2].ID())
	}

	// A migration reported through another node: the fresh location must be
	// visible from a node that never cached it.
	if _, err := last.MoveNotifyTo(ctx, "ops-first", c.nodes[2].ID(), assignFirst); err != nil {
		t.Fatalf("move via node-2: %v", err)
	}
	if got, err := bystander.Locate(ctx, "ops-first"); err != nil || got != c.nodes[2].ID() {
		t.Fatalf("locate after move = %v at %s, want %s", err, got, c.nodes[2].ID())
	}

	// A residence group: Join and MoveTo issue bound updates and
	// residence-move RPCs across the links.
	group := last.ResidenceGroup("res@ops")
	members := make([]ids.AgentID, 3)
	for i := range members {
		members[i] = ids.AgentID(fmt.Sprintf("ops-member-%d", i))
		if _, err := last.Register(ctx, members[i]); err != nil {
			t.Fatal(err)
		}
		if err := group.Join(ctx, members[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := group.MoveTo(ctx, c.nodes[0].ID()); err != nil {
		t.Fatalf("residence move from node-2: %v", err)
	}
	for _, m := range members {
		if got, err := bystander.Locate(ctx, m); err != nil || got != c.nodes[0].ID() {
			t.Fatalf("member %s after residence move = %v at %s, want %s", m, err, got, c.nodes[0].ID())
		}
	}

	f.ResetAll()
	eventually(t, 20*time.Second, func(ctx context.Context) error {
		if _, err := last.Locate(ctx, "ops-first"); err != nil {
			return err
		}
		first.InvalidateLocation("ops-last")
		got, err := first.Locate(ctx, "ops-last")
		if err != nil {
			return err
		}
		if got != c.nodes[2].ID() {
			return fmt.Errorf("post-reset locate at %s, want %s", got, c.nodes[2].ID())
		}
		return nil
	})
}
