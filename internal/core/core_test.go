package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"agentloc/internal/bitstr"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// testCluster bundles a deployed mechanism for tests.
type testCluster struct {
	nodes   []*platform.Node
	service *Service
	// tracers holds one sample-everything span recorder per node when the
	// cluster was built with tracing (newTCPCluster does; newTestCluster
	// leaves it nil).
	tracers []*trace.Recorder
	// net is the simulated LAN newTestCluster builds; nil on other links.
	net *transport.Network
}

func newTestCluster(t *testing.T, cfg Config, numNodes int) *testCluster {
	t.Helper()
	goroutinesReturn(t)
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, numNodes)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net})
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
	return &testCluster{nodes: nodes, service: svc, net: net}
}

// releasesAll has the test end by proving its nodes gave back every call they
// took: once every hosted agent is stopped — which ends the calls agents make
// on their own account, and waits for the ones they make inside a request — no
// node may still have a call registered. A call's Wait takes it out of its
// peer's pending set however it ends, so one left there is a leak. Register it
// after the nodes' Close, which empties the set, so that it runs first.
func releasesAll(t *testing.T, nodes []*platform.Node) {
	t.Cleanup(func() {
		var wg sync.WaitGroup
		for _, n := range nodes {
			for _, a := range n.Agents() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = n.Kill(a)
				}()
			}
		}
		wg.Wait()
		for _, n := range nodes {
			noneOutstanding(t, n, "the test")
		}
	})
}

// goroutinesReturn has the test end by proving it ended every goroutine it
// started: the count must fall back to where it stood when the check was
// installed. Install it before anything the test's cleanups close, so that it
// runs after all of them. It polls up to a deadline, since a goroutine told
// to stop may take a moment to exit; a leaked one never does.
func goroutinesReturn(tb testing.TB) {
	before := runtime.NumGoroutine()
	tb.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				tb.Errorf("%d goroutines still running after the test, %d before it:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// noneOutstanding fails unless the node's calls have all been answered or
// given up on shortly after op returned. Not at once: a call an agent's own
// loop (a heartbeat, a checkpoint push) has in flight ends on its own; a
// leaked one never does.
func noneOutstanding(t *testing.T, n *platform.Node, op string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); n.Outstanding() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d calls still waiting after %s returned", n.ID(), n.Outstanding(), op)
			return
		}
	}
}

// quietConfig never rehashes on its own: thresholds far away.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.TMax = 1e9
	cfg.TMin = 0
	cfg.IAgentServiceTime = 0
	cfg.CheckInterval = 50 * time.Millisecond
	return cfg
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRegisterAndLocate(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	// Register agents from different nodes; locate them from yet another.
	for i, n := range c.nodes {
		client := c.service.ClientFor(n)
		agent := ids.AgentID(fmt.Sprintf("agent-%d", i))
		if _, err := client.Register(ctx, agent); err != nil {
			t.Fatalf("register %s: %v", agent, err)
		}
	}
	querier := c.service.ClientFor(c.nodes[2])
	for i, n := range c.nodes {
		agent := ids.AgentID(fmt.Sprintf("agent-%d", i))
		got, err := querier.Locate(ctx, agent)
		if err != nil {
			t.Fatalf("locate %s: %v", agent, err)
		}
		if got != n.ID() {
			t.Errorf("locate %s = %s, want %s", agent, got, n.ID())
		}
	}
}

func TestLocateUnregistered(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	client := c.service.ClientFor(c.nodes[0])
	_, err := client.Locate(testCtx(t), "ghost")
	if !errors.Is(err, ErrNotRegistered) {
		t.Errorf("error = %v, want ErrNotRegistered", err)
	}
}

func TestMoveNotifyUpdatesLocation(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	agent := ids.AgentID("roamer")
	assign, err := c.service.ClientFor(c.nodes[0]).Register(ctx, agent)
	if err != nil {
		t.Fatal(err)
	}
	// The agent "moves" to node 1 and reports from there with its cached
	// assignment.
	if _, err := c.service.ClientFor(c.nodes[1]).MoveNotify(ctx, agent, assign); err != nil {
		t.Fatal(err)
	}
	got, err := c.service.ClientFor(c.nodes[2]).Locate(ctx, agent)
	if err != nil {
		t.Fatal(err)
	}
	if got != c.nodes[1].ID() {
		t.Errorf("located at %s, want %s", got, c.nodes[1].ID())
	}
}

func TestDeregister(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	client := c.service.ClientFor(c.nodes[0])
	agent := ids.AgentID("shortlived")
	assign, err := client.Register(ctx, agent)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Deregister(ctx, agent, assign); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Locate(ctx, agent); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("locate after deregister = %v, want ErrNotRegistered", err)
	}
}

func TestStatsInitial(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	stats, err := c.service.Stats(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumIAgents != 1 {
		t.Errorf("NumIAgents = %d, want 1", stats.NumIAgents)
	}
	if stats.Splits != 0 || stats.Merges != 0 {
		t.Errorf("Splits/Merges = %d/%d, want 0/0", stats.Splits, stats.Merges)
	}
	if stats.HashVersion != 1 {
		t.Errorf("HashVersion = %d, want 1", stats.HashVersion)
	}
}

// registerMany registers count agents round-robin over the nodes and
// returns their home nodes.
func registerMany(t *testing.T, c *testCluster, ctx context.Context, count int) map[ids.AgentID]platform.NodeID {
	t.Helper()
	homes := make(map[ids.AgentID]platform.NodeID, count)
	for i := 0; i < count; i++ {
		n := c.nodes[i%len(c.nodes)]
		agent := ids.AgentID(fmt.Sprintf("load-agent-%d", i))
		if _, err := c.service.ClientFor(n).Register(ctx, agent); err != nil {
			t.Fatalf("register %s: %v", agent, err)
		}
		homes[agent] = n.ID()
	}
	return homes
}

func TestSplitUnderLoadAndCorrectness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TMax = 30
	cfg.TMin = 0 // no merging in this test
	cfg.CheckInterval = 30 * time.Millisecond
	cfg.RateWindow = 300 * time.Millisecond
	cfg.IAgentServiceTime = 0
	c := newTestCluster(t, cfg, 4)
	ctx := testCtx(t)

	homes := registerMany(t, c, ctx, 40)

	// Hammer the service with locate traffic until the HAgent has split
	// at least twice.
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := c.service.ClientFor(c.nodes[w%len(c.nodes)])
			r := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				agent := ids.AgentID(fmt.Sprintf("load-agent-%d", r.Intn(40)))
				_, _ = client.Locate(ctx, agent)
			}
		}(w)
	}

	deadline := time.Now().Add(20 * time.Second)
	var numIAgents int
	for time.Now().Before(deadline) {
		stats, err := c.service.Stats(ctx)
		if err == nil && stats.Splits >= 2 {
			numIAgents = stats.NumIAgents
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stopLoad)
	wg.Wait()

	if numIAgents < 2 {
		stats, _ := c.service.Stats(ctx)
		t.Fatalf("no splits happened under load: %+v", stats)
	}

	// Correctness after rehashing: every agent still locatable at its
	// registered home, even through a fresh client with a cold LHAgent
	// view.
	querier := c.service.ClientFor(c.nodes[3])
	for agent, home := range homes {
		got, err := querier.Locate(ctx, agent)
		if err != nil {
			t.Fatalf("locate %s after splits: %v", agent, err)
		}
		if got != home {
			t.Errorf("locate %s = %s, want %s", agent, got, home)
		}
	}
}

func TestMergeWhenIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TMax = 25
	cfg.TMin = 3
	cfg.CheckInterval = 30 * time.Millisecond
	cfg.RateWindow = 300 * time.Millisecond
	cfg.MergeGrace = 200 * time.Millisecond
	cfg.IAgentServiceTime = 0
	c := newTestCluster(t, cfg, 3)
	ctx := testCtx(t)

	homes := registerMany(t, c, ctx, 30)

	// Load phase: force at least one split.
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := c.service.ClientFor(c.nodes[0])
		r := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stopLoad:
				return
			default:
			}
			_, _ = client.Locate(ctx, ids.AgentID(fmt.Sprintf("load-agent-%d", r.Intn(30))))
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	split := false
	for time.Now().Before(deadline) {
		stats, err := c.service.Stats(ctx)
		if err == nil && stats.Splits >= 1 {
			split = true
			break
		}
		time.Sleep(30 * time.Millisecond)
	}
	close(stopLoad)
	wg.Wait()
	if !split {
		t.Fatal("no split during load phase")
	}

	// Idle phase: rates fall below Tmin; IAgents merge back to one.
	deadline = time.Now().Add(20 * time.Second)
	merged := false
	for time.Now().Before(deadline) {
		stats, err := c.service.Stats(ctx)
		if err == nil && stats.NumIAgents == 1 && stats.Merges >= 1 {
			merged = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !merged {
		stats, _ := c.service.Stats(ctx)
		t.Fatalf("IAgents did not merge when idle: %+v", stats)
	}

	// Correctness after merging.
	querier := c.service.ClientFor(c.nodes[2])
	for agent, home := range homes {
		got, err := querier.Locate(ctx, agent)
		if err != nil {
			t.Fatalf("locate %s after merge: %v", agent, err)
		}
		if got != home {
			t.Errorf("locate %s = %s, want %s", agent, got, home)
		}
	}
}

// TestStaleLHAgentRefresh drives the §4.3 propagation path deterministically:
// a split is triggered through the HAgent protocol while another node's
// LHAgent still caches version 1; a locate through that stale copy must
// transparently refresh and succeed.
func TestStaleLHAgentRefresh(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	// Register agents and warm up both LHAgents at version 1.
	homes := registerMany(t, c, ctx, 20)
	staleClient := c.service.ClientFor(c.nodes[2])
	for agent := range homes {
		if _, err := staleClient.Locate(ctx, agent); err != nil {
			t.Fatal(err)
		}
	}

	// Trigger a split through the HAgent protocol, impersonating the
	// overloaded iagent-1 with a balanced per-agent load report.
	perAgent := make(map[ids.AgentID]uint64, len(homes))
	for agent := range homes {
		perAgent[agent] = 10
	}
	var resp RehashResp
	err := c.nodes[0].CallAgent(ctx, c.service.Config().HAgentNode, c.service.Config().HAgent,
		KindRequestSplit, RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("split request status = %v", resp.Status)
	}

	stats, err := c.service.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumIAgents != 2 {
		t.Fatalf("NumIAgents = %d, want 2", stats.NumIAgents)
	}

	// node-2's LHAgent still holds version 1; locates must succeed via
	// the refresh-and-retry loop and return correct homes.
	for agent, home := range homes {
		got, err := staleClient.Locate(ctx, agent)
		if err != nil {
			t.Fatalf("stale locate %s: %v", agent, err)
		}
		if got != home {
			t.Errorf("stale locate %s = %s, want %s", agent, got, home)
		}
	}

	// The retries converged because the LHAgent fetched the new copy for the
	// refresh its copy could not satisfy: the installed version is now the
	// post-split one.
	var fresh RefreshResp
	lh := LHAgentID(c.nodes[2].ID())
	if err := c.nodes[2].CallAgent(ctx, c.nodes[2].ID(), lh, KindRefresh, &RefreshReq{}, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.HashVersion < 2 {
		t.Errorf("node-2's LHAgent still at v%d after the stale locates, want the post-split copy", fresh.HashVersion)
	}
}

func TestSplitRequestStaleVersionIgnored(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	cfg := c.service.Config()

	var resp RehashResp
	err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestSplit,
		RequestSplitReq{IAgent: "iagent-1", HashVersion: 0, Rate: 999}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusIgnored {
		t.Errorf("status = %v, want ignored", resp.Status)
	}
}

func TestMergeLastIAgentIgnored(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	cfg := c.service.Config()

	var resp RehashResp
	err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestMerge,
		RequestMergeReq{IAgent: "iagent-1", HashVersion: 1, Rate: 0}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusIgnored {
		t.Errorf("status = %v, want ignored", resp.Status)
	}
}

func TestDeployValidation(t *testing.T) {
	if _, err := Deploy(context.Background(), DefaultConfig(), nil); err == nil {
		t.Error("Deploy with no nodes accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty hagent", func(c *Config) { c.HAgent = "" }},
		{"zero tmax", func(c *Config) { c.TMax = 0 }},
		{"tmin above tmax", func(c *Config) { c.TMin = c.TMax + 1 }},
		{"zero window", func(c *Config) { c.RateWindow = 0 }},
		{"zero interval", func(c *Config) { c.CheckInterval = 0 }},
		{"zero timeout", func(c *Config) { c.CallTimeout = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestChooseSplitEven(t *testing.T) {
	tree := hashtree.New("A")
	cands, err := tree.SplitCandidates("A", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Construct agents whose first binary bit differs, loads balanced.
	a0, err := ids.WithBinaryPrefix("even", bitsMust("0"), 10000)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := ids.WithBinaryPrefix("even", bitsMust("1"), 10000)
	if err != nil {
		t.Fatal(err)
	}
	perAgent := map[ids.AgentID]uint64{a0: 50, a1: 50}
	c, ok := chooseSplit(cands, splitEvaluator(RequestSplitReq{PerAgent: perAgent}), 0.15)
	if !ok {
		t.Fatal("no candidate chosen")
	}
	if c.Kind != hashtree.SplitSimple || c.BitPos != 0 {
		t.Errorf("chose %v, want simple split on bit 0", c)
	}
}

func TestChooseSplitSkewedPrefersDeeperBit(t *testing.T) {
	tree := hashtree.New("A")
	cands, err := tree.SplitCandidates("A", 6)
	if err != nil {
		t.Fatal(err)
	}
	// All load on agents with first bit 0, balanced on the second bit:
	// m=1 splits 100/0, m=2 splits 50/50 — the chooser must take m=2.
	a00, err := ids.WithBinaryPrefix("skew", bitsMust("00"), 100000)
	if err != nil {
		t.Fatal(err)
	}
	a01, err := ids.WithBinaryPrefix("skew", bitsMust("01"), 100000)
	if err != nil {
		t.Fatal(err)
	}
	perAgent := map[ids.AgentID]uint64{a00: 50, a01: 50}
	c, ok := chooseSplit(cands, splitEvaluator(RequestSplitReq{PerAgent: perAgent}), 0.15)
	if !ok {
		t.Fatal("no candidate chosen")
	}
	if c.BitPos != 1 {
		t.Errorf("chose bit %d, want 1 (second bit)", c.BitPos)
	}
}

func TestChooseSplitNoLoadFallsBackToSimple(t *testing.T) {
	tree := hashtree.New("A")
	cands, err := tree.SplitCandidates("A", 4)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := chooseSplit(cands, splitEvaluator(RequestSplitReq{}), 0.15)
	if !ok {
		t.Fatal("no candidate chosen")
	}
	if c.Kind != hashtree.SplitSimple {
		t.Errorf("chose %v, want simple", c)
	}
}

func TestChooseSplitAllLoadOneAgent(t *testing.T) {
	tree := hashtree.New("A")
	cands, err := tree.SplitCandidates("A", 3)
	if err != nil {
		t.Fatal(err)
	}
	// One agent holds all load: every candidate moves 0% or 100%, so no
	// useful split exists.
	perAgent := map[ids.AgentID]uint64{"hot": 100}
	if _, ok := chooseSplit(cands, splitEvaluator(RequestSplitReq{PerAgent: perAgent}), 0.15); ok {
		t.Error("useless split chosen for single hot agent")
	}
}

func TestAffectedIAgents(t *testing.T) {
	tr := hashtree.PaperTree()
	cands, err := tr.SplitCandidates("IA6", 1)
	if err != nil {
		t.Fatal(err)
	}
	split, err := tr.ApplySplit(cands[0], "IA7")
	if err != nil {
		t.Fatal(err)
	}
	got := affectedIAgents(tr, split)
	want := map[ids.AgentID]bool{"IA6": true, "IA7": true}
	if len(got) != len(want) {
		t.Fatalf("affected = %v, want IA6+IA7", got)
	}
	for _, ia := range got {
		if !want[ia] {
			t.Errorf("unexpected affected IAgent %s", ia)
		}
	}

	merged, _, err := tr.Merge("IA0")
	if err != nil {
		t.Fatal(err)
	}
	got = affectedIAgents(tr, merged)
	want = map[ids.AgentID]bool{"IA0": true, "IA1": true, "IA2": true}
	if len(got) != len(want) {
		t.Fatalf("affected after merge = %v, want IA0+IA1+IA2", got)
	}
	for _, ia := range got {
		if !want[ia] {
			t.Errorf("unexpected affected IAgent %s", ia)
		}
	}
}

func TestStateDTORoundTrip(t *testing.T) {
	st := &State{
		Ver:       7,
		Tree:      hashtree.PaperTree(),
		Locations: map[ids.AgentID]platform.NodeID{},
	}
	for _, ia := range st.Tree.IAgents() {
		st.Locations[ids.AgentID(ia)] = "node-x"
	}
	back, err := FromDTO(st.DTO())
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != st.Version() {
		t.Errorf("version = %d, want %d", back.Version(), st.Version())
	}
	if len(back.Locations) != len(st.Locations) {
		t.Errorf("locations = %d entries, want %d", len(back.Locations), len(st.Locations))
	}
}

func TestStateFromDTOMissingLocation(t *testing.T) {
	st := &State{Ver: 1, Tree: hashtree.New("IA0"), Locations: map[ids.AgentID]platform.NodeID{}}
	if _, err := FromDTO(st.DTO()); err == nil {
		t.Error("state without IAgent location accepted")
	}
}

// FuzzStateDecode throws arbitrary bytes at the one hash-state decoder: it
// never panics, rejects only with typed wire errors, and an accepted state's
// encoding is a fixed point — decoding it and encoding again gives the same
// bytes. The committed corpus holds the PaperTree state and a 64-leaf one.
func FuzzStateDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte((&State{Ver: 1, Tree: hashtree.New("IA0"), Locations: map[ids.AgentID]platform.NodeID{"IA0": "node-0"}}).DTO()))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := FromDTO(data)
		if err != nil {
			if !typedWireError(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		enc := st.DTO()
		back, err := FromDTO(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted state: %v", err)
		}
		if again := back.DTO(); !bytes.Equal(again, enc) {
			t.Fatalf("state encodes as %x, then as %x", enc, again)
		}
	})
}

func TestStateOwnerOf(t *testing.T) {
	st := &State{
		Ver:       1,
		Tree:      hashtree.New("IA0"),
		Locations: map[ids.AgentID]platform.NodeID{"IA0": "node-0"},
	}
	ia, node, err := st.OwnerOf("anything")
	if err != nil {
		t.Fatal(err)
	}
	if ia != "IA0" || node != "node-0" {
		t.Errorf("owner = %s@%s", ia, node)
	}
	var nilState *State
	if _, _, err := nilState.OwnerOf("x"); err == nil {
		t.Error("nil state OwnerOf succeeded")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOK:             "ok",
		StatusNotResponsible: "not-responsible",
		StatusUnknownAgent:   "unknown-agent",
		StatusIgnored:        "ignored",
		Status(99):           "invalid-status",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// bitsMust is shorthand for bitstr.MustParse.
func bitsMust(s string) bitstr.Bits { return bitstr.MustParse(s) }
