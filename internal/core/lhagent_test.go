package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// versionedHAgent stands in for the HAgent: every GetHash it serves carries
// a hash state one version newer than the last, so each LHAgent fetch
// installs a new copy.
type versionedHAgent struct {
	ver atomic.Uint64
}

func (h *versionedHAgent) HandleRequest(_ *platform.Context, kind string, payload []byte) (any, error) {
	if kind != KindGetHash {
		return nil, fmt.Errorf("versionedHAgent: unknown kind %q", kind)
	}
	return GetHashResp{State: stateAt(h.ver.Add(1)).DTO()}, nil
}

// stateAt builds a one-leaf hash state at the given version.
func stateAt(ver uint64) *State {
	return &State{
		Ver:       ver,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": "node-0"},
	}
}

// TestLHAgentConcurrentReads drives the four read kinds from eight
// goroutines while the copy is replaced underneath them both ways — eager
// adopts (some deliberately older than the installed copy) and refreshes that
// force a fetch. No reader may ever see the version go backwards or a leaf
// without a location. Run with -race -count=10.
func TestLHAgentConcurrentReads(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	n, err := platform.NewNode(platform.Config{ID: "node-0", Link: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cfg := quietConfig()
	cfg.HAgentNode = "node-0"
	hagent := &versionedHAgent{}
	hagent.ver.Store(1) // real hash states start at version 1
	if err := n.Launch(cfg.HAgent, hagent); err != nil {
		t.Fatal(err)
	}
	lh := LHAgentID("node-0")
	if err := n.Launch(lh, &LHAgentBehavior{Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	const readers, rounds = 8, 200
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var seen uint64
			observe := func(what string, ver uint64) {
				if ver < seen {
					t.Errorf("reader %d: %s answered v%d after v%d", r, what, ver, seen)
				}
				seen = ver
			}
			for i := 0; i < rounds; i++ {
				var who WhoisResp
				if err := n.CallAgent(ctx, "node-0", lh, KindWhois, &WhoisReq{Target: ids.AgentID(fmt.Sprintf("a-%d-%d", r, i))}, &who); err != nil {
					t.Errorf("whois: %v", err)
					return
				}
				if who.IAgent == "" || who.Node == "" {
					t.Errorf("whois answered an empty owner: %+v", who)
				}
				observe("whois", who.HashVersion)

				var batch WhoisBatchResp
				targets := []ids.AgentID{"x", ids.AgentID(fmt.Sprintf("b-%d-%d", r, i))}
				if err := n.CallAgent(ctx, "node-0", lh, KindWhoisBatch, &WhoisBatchReq{Targets: targets}, &batch); err != nil {
					t.Errorf("whois-batch: %v", err)
					return
				}
				if len(batch.Owner) != len(targets) || len(batch.Leaves) == 0 {
					t.Errorf("whois-batch answered %d owners over %d leaves", len(batch.Owner), len(batch.Leaves))
				}
				observe("whois-batch", batch.HashVersion)

				var leaves LeavesResp
				if err := n.CallAgent(ctx, "node-0", lh, KindLeaves, &LeavesReq{}, &leaves); err != nil {
					t.Errorf("leaves: %v", err)
					return
				}
				if len(leaves.Leaves) == 0 {
					t.Errorf("leaves answered an empty scatter set at v%d", leaves.HashVersion)
				}
				for _, l := range leaves.Leaves {
					if l.Node == "" {
						t.Errorf("leaf %s has no location at v%d", l.IAgent, leaves.HashVersion)
					}
				}
				observe("leaves", leaves.HashVersion)

				// Every eighth round demands a copy newer than the one just
				// seen: the read fetches it from the HAgent on this goroutine.
				min := uint64(0)
				if i%8 == r%8 {
					min = seen + 1
				}
				var fresh RefreshResp
				if err := n.CallAgent(ctx, "node-0", lh, KindRefresh, &RefreshReq{MinVersion: min}, &fresh); err != nil {
					t.Errorf("refresh: %v", err)
					return
				}
				if fresh.HashVersion < min {
					t.Errorf("refresh(min v%d) answered v%d", min, fresh.HashVersion)
				}
				observe("refresh", fresh.HashVersion)
			}
		}(r)
	}
	// The adopter pushes states at or just behind the version the fake HAgent
	// has reached (never ahead, so a fetch always finds something newer): half
	// of them are already superseded and must be ignored.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ver := hagent.ver.Load()
			if i%2 == 0 && ver > 2 {
				ver -= 2
			}
			var resp RefreshResp
			if err := n.CallAgent(ctx, "node-0", lh, KindLHAdopt, AdoptLHStateReq{State: stateAt(ver).DTO()}, &resp); err != nil {
				t.Errorf("adopt: %v", err)
				return
			}
			if resp.HashVersion < ver {
				t.Errorf("adopt(v%d) left the copy at v%d", ver, resp.HashVersion)
			}
		}
	}()
	wg.Wait()
}

// BenchmarkWhoisLocal times Client.Whois against the node's own LHAgent with
// a warm copy: the cost every location operation pays before its network hop.
func BenchmarkWhoisLocal(b *testing.B) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	n, err := platform.NewNode(platform.Config{ID: "node-0", Link: net})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	svc, err := Deploy(context.Background(), quietConfig(), []*platform.Node{n})
	if err != nil {
		b.Fatal(err)
	}
	client := svc.ClientFor(n)
	ctx := context.Background()
	targets := make([]ids.AgentID, 1024)
	for i := range targets {
		targets[i] = ids.AgentID(fmt.Sprintf("a-%07d-padded-to-24-b", i))
	}
	if _, err := client.Whois(ctx, targets[0]); err != nil { // first copy
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Whois(ctx, targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDiscoverCountsEveryScatterRPC is the regression test for the op RPC
// counter across a scatter: a lost increment shows as an rpcs attribute
// below leaves + 1 (one KindLeaves, then one KindDiscover per leaf). The
// counter is a plain int, which -race checks: every leg is posted from the
// calling goroutine.
func TestDiscoverCountsEveryScatterRPC(t *testing.T) {
	c, recs := newTracedCluster(t, quietConfig(), 3)
	ctx := testCtx(t)
	client := c.service.ClientFor(c.nodes[0])
	homes := make(map[ids.AgentID]platform.NodeID)
	for i := 0; i < 32; i++ {
		agent := ids.AgentID(fmt.Sprintf("scatter-agent-%02d", i))
		if _, err := client.RegisterWithCapabilities(ctx, agent, []string{"worker"}); err != nil {
			t.Fatal(err)
		}
		homes[agent] = c.nodes[0].ID()
	}
	forceSplit(t, c, ctx, "iagent-1", homes)
	forceSplit(t, c, ctx, "iagent-1", homes)
	leaves := len(hashState(t, c, ctx).Locations)
	if leaves < 3 {
		t.Fatalf("cluster has %d leaves, want at least 3", leaves)
	}
	// The first query converges the local hash copy (retry rounds add
	// RPCs); the second runs exactly one enumeration and one scatter.
	for i := 0; i < 2; i++ {
		requireSameSet(t, "worker", discoverSet(t, ctx, client, Query{Caps: []string{"worker"}}), homes)
	}
	var last *trace.Span
	for _, s := range recs[0].Snapshot() {
		if s.Tier == "client" && s.Name == "discover" {
			last = &s
		}
	}
	if last == nil {
		t.Fatal("no discover span recorded")
	}
	if got, want := last.Attr("rpcs"), fmt.Sprint(leaves+1); got != want {
		t.Errorf("discover over %d leaves recorded rpcs=%s, want %s", leaves, got, want)
	}
}

// TestNodeCloseWithSiblingLeavesIsPrompt closes a node hosting two sibling
// leaves whose background loops (heartbeats to an HAgent that is already
// gone, checkpoint pushes to each other) are in flight. Close must abandon
// those calls instead of waiting out CallTimeout once per agent.
func TestNodeCloseWithSiblingLeavesIsPrompt(t *testing.T) {
	cfg := failoverConfig()
	cfg.CallTimeout = 10 * time.Second
	cfg.HAgentNode = "node-1"
	cfg.PlacementNodes = []platform.NodeID{"node-0"}
	c, _ := newTCPCluster(t, cfg, 2, nil)
	ctx := testCtx(t)
	homes := registerMany(t, c, ctx, 16)
	forceSplit(t, c, ctx, "iagent-1", homes)
	st := hashState(t, c, ctx)
	if n := len(st.Locations); n != 2 {
		t.Fatalf("cluster has %d leaves, want 2", n)
	}
	for ia, node := range st.Locations {
		if node != "node-0" {
			t.Fatalf("leaf %s on %s, want both siblings on node-0", ia, node)
		}
	}
	// With the HAgent's node gone (its link stays up, so envelopes to it
	// vanish rather than bounce), every heartbeat from node-0 is a call
	// nobody will answer.
	if err := c.nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * cfg.HeartbeatInterval) // let both leaves start a beat
	start := time.Now()
	if err := c.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with CallTimeout %v; background calls were not abandoned", d, cfg.CallTimeout)
	}
}

// gatedHAgent is versionedHAgent behind a gate: each GetHash counts itself,
// then waits for the gate to open, or for the agent to stop.
type gatedHAgent struct {
	versionedHAgent
	gets atomic.Int64
	gate chan struct{}
}

func newGatedHAgent() *gatedHAgent {
	h := &gatedHAgent{gate: make(chan struct{})}
	h.ver.Store(1)
	return h
}

func (h *gatedHAgent) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	h.gets.Add(1)
	select {
	case <-h.gate:
	case <-ctx.Done():
		return nil, errors.New("gatedHAgent: stopped")
	}
	return h.versionedHAgent.HandleRequest(ctx, kind, payload)
}

// newLHAgentNodes runs an LHAgent on node-0 whose HAgents are on the nodes
// after it: hagents[0], the primary, on node-1, and each further one on the
// next node as a fallback. Each node counts the envelopes its link carries in
// a registry of its own. It returns the nodes, the LHAgent's id and the
// configuration it runs with.
func newLHAgentNodes(t *testing.T, cfg Config, hagents ...platform.Behavior) ([]*platform.Node, ids.AgentID, Config) {
	t.Helper()
	goroutinesReturn(t)
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, 1+len(hagents))
	for i := range nodes {
		reg := metrics.New()
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: transport.Instrument(net, reg), Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	releasesAll(t, nodes)
	cfg.HAgentNode = "node-1"
	for i, h := range hagents {
		id := cfg.HAgent
		if i > 0 {
			id = ids.AgentID(fmt.Sprintf("hagent-fallback-%d", i))
			cfg.HAgentFallbacks = append(cfg.HAgentFallbacks, HAgentRef{Agent: id, Node: nodes[i+1].ID()})
		}
		if err := nodes[i+1].Launch(id, h); err != nil {
			t.Fatal(err)
		}
	}
	lh := LHAgentID("node-0")
	if err := nodes[0].Launch(lh, &LHAgentBehavior{Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	return nodes, lh, cfg
}

// doneWatch counts the calls of its Done method: a reader waiting out another
// reader's fetch makes one.
type doneWatch struct {
	context.Context
	asked *atomic.Int64
}

func (w doneWatch) Done() <-chan struct{} {
	w.asked.Add(1)
	return w.Context.Done()
}

// lhRead makes read i of a mixed set — whois, whois-batch, leaves and refresh
// in turn, the last two demanding at least minVersion — and returns the hash
// version it was answered at.
func lhRead(ctx context.Context, n *platform.Node, lh ids.AgentID, i int, minVersion uint64) (uint64, error) {
	target := ids.AgentID(fmt.Sprintf("t-%d", i))
	switch i % 4 {
	case 0:
		var resp WhoisResp
		err := n.CallAgent(ctx, n.ID(), lh, KindWhois, &WhoisReq{Target: target}, &resp)
		return resp.HashVersion, err
	case 1:
		var resp WhoisBatchResp
		err := n.CallAgent(ctx, n.ID(), lh, KindWhoisBatch, &WhoisBatchReq{Targets: []ids.AgentID{target, "x"}}, &resp)
		return resp.HashVersion, err
	case 2:
		var resp LeavesResp
		err := n.CallAgent(ctx, n.ID(), lh, KindLeaves, &LeavesReq{MinVersion: minVersion}, &resp)
		return resp.HashVersion, err
	default:
		var resp RefreshResp
		err := n.CallAgent(ctx, n.ID(), lh, KindRefresh, &RefreshReq{MinVersion: minVersion}, &resp)
		return resp.HashVersion, err
	}
}

// TestLHAgentFetchIsSingleFlight: 64 concurrent reads of mixed kinds on the
// LHAgent's node, made while the one fetch they need is held at the HAgent,
// cost one GetHash between them — once when there is no copy yet, and once
// when the copy is older than the leaves and refresh reads demand (whois and
// whois-batch answer from the stale copy at once).
func TestLHAgentFetchIsSingleFlight(t *testing.T) {
	hagent := newGatedHAgent()
	nodes, lh, _ := newLHAgentNodes(t, quietConfig(), hagent)
	ctx := testCtx(t)
	const readers = 64
	for _, phase := range []struct {
		name       string
		minVersion uint64 // of the leaves and refresh reads
		waiting    int64  // readers that wait for the fetch
		want       uint64 // the version the fetch installs
	}{
		{"missing copy", 0, readers, 2},
		{"stale copy", 3, readers / 2, 3},
	} {
		hagent.gets.Store(0)
		hagent.gate = make(chan struct{})
		var asked, answered atomic.Int64
		rctx := doneWatch{Context: ctx, asked: &asked}
		got := make([]uint64, readers)
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = lhRead(rctx, nodes[0], lh, i, phase.minVersion)
				answered.Add(1)
			}()
		}
		// Hold the fetch until every other waiting reader waits for it and
		// every reader the installed copy satisfies has been answered: one the
		// scheduler started late would otherwise read the fetched copy.
		for deadline := time.Now().Add(5 * time.Second); hagent.gets.Load() == 0 || asked.Load() < phase.waiting-1 || answered.Load() < readers-phase.waiting; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d GetHash, %d readers waiting, %d answered", phase.name, hagent.gets.Load(), asked.Load(), answered.Load())
			}
		}
		close(hagent.gate)
		wg.Wait()
		if n := hagent.gets.Load(); n != 1 {
			t.Errorf("%s: %d reads made %d GetHash, want 1", phase.name, readers, n)
		}
		for i := range got {
			fetched := i%4 >= 2 || phase.minVersion == 0
			switch {
			case errs[i] != nil:
				t.Errorf("%s: read %d: %v", phase.name, i, errs[i])
			case fetched && got[i] != phase.want:
				t.Errorf("%s: read %d answered v%d, want v%d", phase.name, i, got[i], phase.want)
			case !fetched && got[i] != phase.want-1:
				t.Errorf("%s: read %d answered v%d from the stale copy, want v%d", phase.name, i, got[i], phase.want-1)
			}
		}
	}
}

// TestLHAgentWaiterKeepsItsDeadline: a reader waiting out another reader's
// fetch from a stalled HAgent returns its own context's error at its own
// deadline; the fetching reader's call ends with its context, and the node is
// left with no call outstanding.
func TestLHAgentWaiterKeepsItsDeadline(t *testing.T) {
	hagent := newGatedHAgent()
	defer close(hagent.gate)
	cfg := quietConfig()
	cfg.CallTimeout = 30 * time.Second
	nodes, lh, _ := newLHAgentNodes(t, cfg, hagent)

	fctx, cancel := context.WithCancel(testCtx(t))
	defer cancel()
	fetcher := make(chan error, 1)
	go func() {
		_, err := lhRead(fctx, nodes[0], lh, 3, 0)
		fetcher <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); hagent.gets.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first reader never reached the HAgent")
		}
	}

	const wait = 50 * time.Millisecond
	for i := 0; i < 4; i++ {
		wctx, wcancel := context.WithTimeout(testCtx(t), wait)
		start := time.Now()
		_, err := lhRead(wctx, nodes[0], lh, i, 0)
		took := time.Since(start)
		wcancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("read %d behind a stalled fetch: %v, want its deadline", i, err)
		}
		if took > wait+100*time.Millisecond {
			t.Errorf("read %d took %v past a %v deadline", i, took, wait)
		}
	}
	cancel()
	if err := <-fetcher; !errors.Is(err, context.Canceled) {
		t.Errorf("the fetching reader: %v, want its cancellation", err)
	}
	noneOutstanding(t, nodes[0], "the reads")
	if n := hagent.gets.Load(); n != 1 {
		t.Errorf("%d GetHash, want 1", n)
	}
}

// TestLHAgentReadsAreSameNodeOnly: every read kind sent to another node's
// LHAgent is refused with the same-node error; only eager adopts cross.
func TestLHAgentReadsAreSameNodeOnly(t *testing.T) {
	if _, ok := any(&LHAgentBehavior{}).(platform.ConcurrentBehavior); ok {
		t.Error("the LHAgent serves requests off the read loop")
	}
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	lh := LHAgentID(c.nodes[0].ID())
	for kind, call := range map[string][2]any{
		KindWhois:      {&WhoisReq{Target: "x"}, &WhoisResp{}},
		KindWhoisBatch: {&WhoisBatchReq{Targets: []ids.AgentID{"x"}}, &WhoisBatchResp{}},
		KindLeaves:     {&LeavesReq{}, &LeavesResp{}},
		KindRefresh:    {&RefreshReq{}, &RefreshResp{}},
	} {
		err := c.nodes[1].CallAgent(ctx, c.nodes[0].ID(), lh, kind, call[0], call[1])
		var re *transport.RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, errReadElsewhere.Error()) {
			t.Errorf("%s from node-1: %v, want a remote error naming %q", kind, err, errReadElsewhere)
		}
	}
	st := stateAt(7)
	var adopted RefreshResp
	if err := c.nodes[1].CallAgent(ctx, c.nodes[0].ID(), lh, KindLHAdopt, AdoptLHStateReq{State: st.DTO()}, &adopted); err != nil || adopted.HashVersion != 7 {
		t.Errorf("adopt from node-1: v%d, %v; want v7", adopted.HashVersion, err)
	}
}

// TestLHAgentReadsByValueOrPointer: a read passed by value is answered as the
// same read passed by pointer — the first of them a refresh past a split,
// which the copy at hand cannot answer.
func TestLHAgentReadsByValueOrPointer(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	homes := registerMany(t, c, ctx, 16)
	forceSplit(t, c, ctx, "iagent-1", homes)
	n, lh := c.nodes[1], LHAgentID(c.nodes[1].ID())
	targets := []ids.AgentID{"a", "b", "c", "agent-0003"}
	for _, tc := range []struct {
		kind         string
		byValue, ptr any
		newResp      func() any
	}{
		{KindRefresh, RefreshReq{MinVersion: 2}, &RefreshReq{MinVersion: 2}, func() any { return &RefreshResp{} }},
		{KindLeaves, LeavesReq{MinVersion: 2}, &LeavesReq{MinVersion: 2}, func() any { return &LeavesResp{} }},
		{KindWhois, WhoisReq{Target: "agent-0003"}, &WhoisReq{Target: "agent-0003"}, func() any { return &WhoisResp{} }},
		{KindWhoisBatch, WhoisBatchReq{Targets: targets}, &WhoisBatchReq{Targets: targets}, func() any { return &WhoisBatchResp{} }},
	} {
		byValue, byPtr := tc.newResp(), tc.newResp()
		if err := n.CallAgent(ctx, n.ID(), lh, tc.kind, tc.byValue, byValue); err != nil {
			t.Fatalf("%s by value: %v", tc.kind, err)
		}
		if err := n.CallAgent(ctx, n.ID(), lh, tc.kind, tc.ptr, byPtr); err != nil {
			t.Fatalf("%s by pointer: %v", tc.kind, err)
		}
		if !reflect.DeepEqual(byValue, byPtr) {
			t.Errorf("%s: by value %+v, by pointer %+v", tc.kind, byValue, byPtr)
		}
		if v := reflect.ValueOf(byValue).Elem().FieldByName("HashVersion").Uint(); v < 2 {
			t.Errorf("%s answered at v%d, before the split", tc.kind, v)
		}
	}
}

// TestLHAgentReadOutlastsStalledPrimary: a client's read whose copy must be
// fetched while the primary HAgent does not answer reaches the fallback in
// the same read — the read is bounded by its operation's context, the
// fetch's call to each HAgent by CallTimeout.
func TestLHAgentReadOutlastsStalledPrimary(t *testing.T) {
	primary := newGatedHAgent()
	defer close(primary.gate)
	fallback := &versionedHAgent{}
	fallback.ver.Store(1)
	cfg := quietConfig()
	cfg.CallTimeout = 250 * time.Millisecond
	nodes, _, cfg := newLHAgentNodes(t, cfg, primary, fallback)
	client := NewClient(NodeCaller{N: nodes[0]}, cfg)
	start := time.Now()
	who, err := client.Whois(testCtx(t), "x")
	if err != nil || who.HashVersion != 2 {
		t.Fatalf("whois past a stalled primary: %+v, %v; want the fallback's v2", who, err)
	}
	if took := time.Since(start); took > 3*cfg.CallTimeout {
		t.Errorf("whois took %v, more than the stalled call's %v and a margin", took, cfg.CallTimeout)
	}
	noneOutstanding(t, nodes[0], "the whois")
}

// TestLHAgentFetchStartsAtLastAnswer: once a fetch has waited out a stalled
// primary and a fallback answered it, the fetches after it start at that
// fallback and never call the primary again — counted in calls, not time.
func TestLHAgentFetchStartsAtLastAnswer(t *testing.T) {
	primary := newGatedHAgent()
	defer close(primary.gate)
	fallback := &versionedHAgent{}
	fallback.ver.Store(1)
	cfg := quietConfig()
	cfg.CallTimeout = 250 * time.Millisecond
	nodes, lh, _ := newLHAgentNodes(t, cfg, primary, fallback)
	ctx := testCtx(t)
	for want := uint64(2); want <= 5; want++ {
		if v, err := lhRead(ctx, nodes[0], lh, 3, want); err != nil || v != want {
			t.Fatalf("refresh to v%d: v%d, %v", want, v, err)
		}
	}
	// Counted where the calls land: a call queued behind the stalled one
	// never reaches the gated handler.
	if n := nodes[1].Metrics().Snapshot().Counter("agentloc_transport_envelopes_received_total", "kind", KindGetHash); n != 1 {
		t.Errorf("the primary was called %d times, want once: by the first fetch only", n)
	}
	if n := fallback.ver.Load() - 1; n != 4 {
		t.Errorf("the fallback answered %d fetches, want 4", n)
	}
	noneOutstanding(t, nodes[0], "the fetches")
}
