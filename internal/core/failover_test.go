package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// failoverConfig is quietConfig with the crash-tolerance subsystem on and
// tight enough timing that a takeover completes in well under a second.
func failoverConfig() Config {
	cfg := quietConfig()
	cfg.HeartbeatInterval = 25 * time.Millisecond
	cfg.SuspectAfterMisses = 3
	cfg.CheckInterval = 10 * time.Millisecond
	return cfg
}

// hashState pulls and decodes the HAgent's current primary state.
func hashState(t *testing.T, c *testCluster, ctx context.Context) *State {
	t.Helper()
	cfg := c.service.Config()
	var resp GetHashResp
	if err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindGetHash, GetHashReq{}, &resp); err != nil {
		t.Fatalf("get hash: %v", err)
	}
	st, err := FromDTO(resp.State)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// forceSplit impersonates an overloaded IAgent so the HAgent splits the
// given leaf, reporting balanced per-agent load over the agents the leaf
// currently owns (the same protocol-level impersonation the replication
// tests use).
func forceSplit(t *testing.T, c *testCluster, ctx context.Context, target ids.AgentID, agents map[ids.AgentID]platform.NodeID) {
	t.Helper()
	st := hashState(t, c, ctx)
	perAgent := make(map[ids.AgentID]uint64)
	for agent := range agents {
		owner, _, err := st.OwnerOf(agent)
		if err != nil {
			t.Fatal(err)
		}
		if owner == target {
			perAgent[agent] = 5
		}
	}
	if len(perAgent) < 2 {
		t.Fatalf("%s owns only %d registered agents; cannot force a split", target, len(perAgent))
	}
	cfg := c.service.Config()
	var resp RehashResp
	err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestSplit,
		RequestSplitReq{IAgent: target, HashVersion: st.Version(), Rate: 999, PerAgent: perAgent}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("split of %s: status %v", target, resp.Status)
	}
}

// soleIAgentOn returns the single IAgent living on the given node, fatal
// if there is not exactly one.
func soleIAgentOn(t *testing.T, st *State, node platform.NodeID) ids.AgentID {
	t.Helper()
	var out ids.AgentID
	for ia, n := range st.Locations {
		if n != node {
			continue
		}
		if out != "" {
			t.Fatalf("both %s and %s live on %s; want exactly one", out, ia, node)
		}
		out = ia
	}
	if out == "" {
		t.Fatalf("no IAgent on %s: %v", node, st.Locations)
	}
	return out
}

// TestIAgentCrashTakeoverRestoresFromCheckpoint is the memory-net version
// of the acceptance scenario: an IAgent isolated on its own node dies with
// the node; the detector suspects it, the probe fails, the HAgent force-
// merges its leaf (exactly one failover), and the absorber activates the
// sibling checkpoint so every agent is locatable at its true home again.
func TestIAgentCrashTakeoverRestoresFromCheckpoint(t *testing.T) {
	cfg := failoverConfig()
	// Placement round-robin starts at node-2, so the two forced splits
	// below land iagent-2 on node-2 and iagent-3 alone on node-1 (Deploy
	// itself puts iagent-1 on the first placement node, node-2).
	cfg.PlacementNodes = []platform.NodeID{"node-2", "node-1"}
	c := newTestCluster(t, cfg, 3)
	ctx := testCtx(t)

	// Homes only on the surviving nodes so every locate has a live answer.
	homes := make(map[ids.AgentID]platform.NodeID)
	for i := 0; i < 24; i++ {
		n := c.nodes[[]int{0, 2}[i%2]]
		agent := ids.AgentID(fmt.Sprintf("ck-agent-%d", i))
		if _, err := c.service.ClientFor(n).Register(ctx, agent); err != nil {
			t.Fatalf("register %s: %v", agent, err)
		}
		homes[agent] = n.ID()
	}

	forceSplit(t, c, ctx, "iagent-1", homes)
	forceSplit(t, c, ctx, "iagent-1", homes)

	st := hashState(t, c, ctx)
	victim := soleIAgentOn(t, st, c.nodes[1].ID())
	if victim == "iagent-1" {
		t.Fatalf("placement put the initial IAgent on the victim node")
	}
	victimOwned := 0
	for agent := range homes {
		if owner, _, err := st.OwnerOf(agent); err == nil && owner == victim {
			victimOwned++
		}
	}
	if victimOwned == 0 {
		t.Fatalf("%s owns no registered agents; the restore path would be vacuous", victim)
	}

	// Let a few checkpoint rounds run so the victim's table (received via
	// handoff) reaches its sibling leaf.
	time.Sleep(12 * cfg.checkpointEvery())

	c.nodes[1].Crash()

	// The detector must take over exactly once.
	eventually(t, 20*time.Second, func(ctx context.Context) error {
		stats, err := c.service.Stats(ctx)
		if err != nil {
			return err
		}
		if stats.Failovers != 1 {
			return fmt.Errorf("failovers = %d, want 1", stats.Failovers)
		}
		return nil
	})

	// Every agent — including the victim's, restored from the checkpoint —
	// is locatable at its exact home through the §4.3 refresh loop.
	for _, n := range []*platform.Node{c.nodes[0], c.nodes[2]} {
		client := c.service.ClientFor(n)
		for agent, home := range homes {
			agent, home := agent, home
			eventually(t, 15*time.Second, func(ctx context.Context) error {
				got, err := client.Locate(ctx, agent)
				if err != nil {
					return err
				}
				if got != home {
					return fmt.Errorf("locate %s = %s, want %s", agent, got, home)
				}
				return nil
			})
		}
	}

	stats, err := c.service.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers != 1 {
		t.Errorf("failovers = %d after recovery, want exactly 1", stats.Failovers)
	}
	if stats.NumIAgents != 2 {
		t.Errorf("NumIAgents = %d after takeover, want 2", stats.NumIAgents)
	}
	if len(stats.Suspects) != 0 {
		t.Errorf("suspects = %v after takeover, want none", stats.Suspects)
	}
}

// TestCheckpointVersionGuardNoResurrection drives the checkpoint receive
// path deterministically on a fake clock (every background loop is frozen,
// so the interleaving of pushes and rehashes is exactly the scripted one)
// and verifies the guard of §7: a push racing a split/merge is rejected,
// and a cooperative merge never activates checkpointed entries — so a
// checkpoint can never resurrect an entry on the wrong leaf.
func TestCheckpointVersionGuardNoResurrection(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, 3)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net, Clock: fake})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	cfg := failoverConfig()
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{nodes: nodes, service: svc}
	ctx := testCtx(t)
	cfg = svc.Config() // defaults (HAgentNode, placement) filled in

	homes := registerMany(t, c, ctx, 16)
	forceSplit(t, c, ctx, "iagent-1", homes) // version 2, iagent-2 appears

	st := hashState(t, c, ctx)
	if st.Version() != 2 {
		t.Fatalf("version after split = %d, want 2", st.Version())
	}
	target := ids.AgentID("iagent-1")
	targetNode := st.Locations[target]

	push := func(req CheckpointReq) CheckpointResp {
		var resp CheckpointResp
		if err := c.nodes[0].CallAgent(ctx, targetNode, target, KindCheckpoint, req, &resp); err != nil {
			t.Fatalf("checkpoint push: %v", err)
		}
		return resp
	}

	zombie := ids.AgentID("zombie-never-registered")
	// A push under a stale hash version is refused outright.
	if resp := push(CheckpointReq{From: "iagent-2", HashVersion: 1, Seq: 1, Full: true,
		Entries: map[ids.AgentID]platform.NodeID{zombie: nodes[1].ID()}}); resp.Status != StatusNotResponsible {
		t.Fatalf("stale-version push status = %v, want StatusNotResponsible", resp.Status)
	}
	// An incremental push with no full base is ignored (sender must resync).
	if resp := push(CheckpointReq{From: "iagent-2", HashVersion: 2, Seq: 1,
		Entries: map[ids.AgentID]platform.NodeID{zombie: nodes[1].ID()}}); resp.Status != StatusIgnored {
		t.Fatalf("baseless incremental push status = %v, want StatusIgnored", resp.Status)
	}
	// A full push at the current version is accepted and held.
	if resp := push(CheckpointReq{From: "iagent-2", HashVersion: 2, Seq: 2, Full: true,
		Entries: map[ids.AgentID]platform.NodeID{zombie: nodes[1].ID()}}); resp.Status != StatusOK {
		t.Fatalf("current-version push status = %v, want StatusOK", resp.Status)
	}
	// A replayed sequence number is acknowledged but must not re-apply.
	if resp := push(CheckpointReq{From: "iagent-2", HashVersion: 2, Seq: 2,
		Entries: map[ids.AgentID]platform.NodeID{"zombie-2": nodes[1].ID()}}); resp.Status != StatusOK {
		t.Fatalf("duplicate-seq push status = %v, want StatusOK", resp.Status)
	}

	// Cooperative merge of the checkpoint's sender: iagent-1 absorbs the
	// id space, but — unlike a takeover — must NOT activate the held
	// checkpoint, and must prune it (its sender left the tree).
	var merge RehashResp
	err = c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestMerge,
		RequestMergeReq{IAgent: "iagent-2", HashVersion: 2, Rate: 0}, &merge)
	if err != nil {
		t.Fatal(err)
	}
	if merge.Status != StatusOK {
		t.Fatalf("merge status = %v", merge.Status)
	}

	// Unfreeze time step by step so heartbeat/checkpoint/sweep loops run a
	// few rounds; a wrongly-held checkpoint would surface here.
	for i := 0; i < 10; i++ {
		fake.Advance(cfg.HeartbeatInterval)
		time.Sleep(5 * time.Millisecond)
	}

	client := c.service.ClientFor(c.nodes[2])
	for _, ghost := range []ids.AgentID{zombie, "zombie-2"} {
		if _, err := client.Locate(ctx, ghost); !errors.Is(err, ErrNotRegistered) {
			t.Errorf("locate %s = %v, want ErrNotRegistered (checkpoint resurrected an entry)", ghost, err)
		}
	}
	for agent, home := range homes {
		got, err := client.Locate(ctx, agent)
		if err != nil {
			t.Fatalf("locate %s after merge: %v", agent, err)
		}
		if got != home {
			t.Errorf("locate %s = %s, want %s", agent, got, home)
		}
	}
	// And the sender's next push under the pre-merge version is refused:
	// the rehash invalidated its lease on that slice of id space.
	if resp := push(CheckpointReq{From: "iagent-2", HashVersion: 2, Seq: 3, Full: true,
		Entries: map[ids.AgentID]platform.NodeID{zombie: nodes[1].ID()}}); resp.Status != StatusNotResponsible {
		t.Fatalf("post-merge stale push status = %v, want StatusNotResponsible", resp.Status)
	}
}

// TestReplicaPromotionWaitsForQuorum exercises the HAgent tier of the
// detector: with two replicas, the first-configured one must NOT promote
// itself while it is the only member seeing the primary's lease expired
// (1/2 votes), and must promote once a second replica confirms (2/2).
func TestReplicaPromotionWaitsForQuorum(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, 3)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}

	cfg := failoverConfig()
	refs := []HAgentRef{
		{Agent: "hagent-replica-1", Node: nodes[1].ID()},
		{Agent: "hagent-replica-2", Node: nodes[2].ID()},
	}
	cfg.HAgentReplicas = refs
	cfg.HAgentFallbacks = refs

	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{nodes: nodes, service: svc}
	ctx := testCtx(t)
	cfg = svc.Config()

	initial := &State{
		Ver:       1,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": nodes[0].ID()},
	}
	got, err := DeployReplicas(cfg, initial.DTO(), nodes[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != refs[0] || got[1] != refs[1] {
		t.Fatalf("DeployReplicas refs = %v, want %v", got, refs)
	}

	homes := registerMany(t, c, ctx, 8)

	// Let the primary's beats seed both replicas' lease clocks.
	time.Sleep(6 * cfg.HeartbeatInterval)

	replicaStats := func(ref HAgentRef) HashStatsResp {
		var stats HashStatsResp
		if err := c.nodes[0].CallAgent(ctx, ref.Node, ref.Agent, KindHashStats, nil, &stats); err != nil {
			t.Fatalf("stats from %s: %v", ref.Agent, err)
		}
		return stats
	}

	// Phase 1 — no quorum: replica-2 dies first, then the primary. The
	// surviving replica-1 sees the lease expired but holds only 1/2 votes,
	// so it must stay standby however long it waits.
	if err := nodes[2].Kill(refs[1].Agent); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Kill(cfg.HAgent); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * cfg.leaseTTL())
	if stats := replicaStats(refs[0]); !stats.Standby || stats.Failovers != 0 {
		t.Fatalf("replica-1 promoted without quorum: standby=%v failovers=%d", stats.Standby, stats.Failovers)
	}

	// Phase 2 — quorum restored: a fresh replica-2 comes back, its view of
	// the primary's lease expires too, and replica-1 promotes on 2/2.
	if err := nodes[2].Launch(refs[1].Agent, &HAgentBehavior{Cfg: cfg, InitialState: initial.DTO(), Standby: true}); err != nil {
		t.Fatal(err)
	}
	eventually(t, 15*time.Second, func(ctx context.Context) error {
		var stats HashStatsResp
		if err := c.nodes[0].CallAgent(ctx, refs[0].Node, refs[0].Agent, KindHashStats, nil, &stats); err != nil {
			return err
		}
		if stats.Standby {
			return errors.New("replica-1 still standby")
		}
		if stats.Failovers == 0 {
			return errors.New("promotion did not count as a failover")
		}
		return nil
	})

	// The promoted replica serves rehash requests — the mechanism is
	// writable again without the original primary.
	perAgent := make(map[ids.AgentID]uint64, len(homes))
	for agent := range homes {
		perAgent[agent] = 5
	}
	var resp RehashResp
	err = c.nodes[0].CallAgent(ctx, refs[0].Node, refs[0].Agent, KindRequestSplit,
		RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || resp.Standby {
		t.Fatalf("split via promoted replica: status=%v standby=%v", resp.Status, resp.Standby)
	}
}

// TestDeployReplicasPartialFailure verifies that a mid-loop launch failure
// tears the earlier replicas down instead of leaking them half-deployed.
func TestDeployReplicasPartialFailure(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, 2)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	cfg := quietConfig()
	cfg.HAgentNode = nodes[0].ID()
	initial := &State{
		Ver:       1,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": nodes[0].ID()},
	}
	// Occupy the second replica's name so the second Launch collides.
	if err := nodes[1].Launch("hagent-replica-2", &LHAgentBehavior{Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	if _, err := DeployReplicas(cfg, initial.DTO(), nodes); err == nil {
		t.Fatal("DeployReplicas succeeded despite a name collision")
	}
	if nodes[0].Hosts("hagent-replica-1") {
		t.Error("replica-1 leaked after a partial DeployReplicas failure")
	}
}

// newTCPMetricsCluster is newTCPCluster with a shared metrics registry
// attached to every node and link, so tests can assert on the failover
// counters the way an operator's scrape would see them.
func newTCPMetricsCluster(t *testing.T, cfg Config, numNodes int, reg *metrics.Registry) *testCluster {
	t.Helper()
	links := make([]*transport.TCP, numNodes)
	for i := range links {
		l, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0", Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		links[i] = l
	}
	nodes := make([]*platform.Node, numNodes)
	for i := range nodes {
		id := platform.NodeID(fmt.Sprintf("node-%d", i))
		for j, l := range links {
			if j != i {
				links[i].AddRoute(platform.NodeID(fmt.Sprintf("node-%d", j)).Addr(), l.ListenAddr())
			}
		}
		n, err := platform.NewNode(platform.Config{ID: id, Link: links[i], Metrics: reg})
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
	return &testCluster{nodes: nodes, service: svc}
}

// TestTCPChaosIAgentNodeCrash is the acceptance chaos test over real TCP:
// kill an IAgent's whole node mid-workload and require that locates
// succeed again after the detector's takeover plus one client refresh,
// that no stale location is answered, and that
// agentloc_failover_total{tier="iagent"} increments exactly once.
func TestTCPChaosIAgentNodeCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP chaos test in -short mode")
	}
	reg := metrics.New()
	cfg := failoverConfig()
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.CheckInterval = 20 * time.Millisecond
	cfg.PlacementNodes = []platform.NodeID{"node-2", "node-1"}
	c := newTCPMetricsCluster(t, cfg, 3, reg)
	ctx := testCtx(t)

	homes := make(map[ids.AgentID]platform.NodeID)
	for i := 0; i < 20; i++ {
		n := c.nodes[[]int{0, 2}[i%2]]
		agent := ids.AgentID(fmt.Sprintf("tcp-ck-%d", i))
		if _, err := c.service.ClientFor(n).Register(ctx, agent); err != nil {
			t.Fatalf("register %s: %v", agent, err)
		}
		homes[agent] = n.ID()
	}
	agentList := make([]ids.AgentID, 0, len(homes))
	for agent := range homes {
		agentList = append(agentList, agent)
	}

	forceSplit(t, c, ctx, "iagent-1", homes)
	forceSplit(t, c, ctx, "iagent-1", homes)
	st := hashState(t, c, ctx)
	victim := soleIAgentOn(t, st, c.nodes[1].ID())
	victimOwned := 0
	for agent := range homes {
		if owner, _, err := st.OwnerOf(agent); err == nil && owner == victim {
			victimOwned++
		}
	}
	if victimOwned == 0 {
		t.Fatalf("%s owns no registered agents", victim)
	}
	time.Sleep(8 * cfg.checkpointEvery())

	// A live locate workload runs across the crash; its errors during the
	// detection window are expected, but any successful answer must be the
	// agent's true home — a crash must never surface a stale location.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var staleMu sync.Mutex
	var stale []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := c.service.ClientFor(c.nodes[2])
		r := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			agent := agentList[r.Intn(len(agentList))]
			lctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			got, err := client.Locate(lctx, agent)
			cancel()
			if err == nil && got != homes[agent] {
				staleMu.Lock()
				stale = append(stale, fmt.Sprintf("%s at %s, want %s", agent, got, homes[agent]))
				staleMu.Unlock()
			}
		}
	}()

	c.nodes[1].Crash()

	eventually(t, 30*time.Second, func(ctx context.Context) error {
		stats, err := c.service.Stats(ctx)
		if err != nil {
			return err
		}
		if stats.Failovers != 1 {
			return fmt.Errorf("failovers = %d, want 1", stats.Failovers)
		}
		return nil
	})
	for agent, home := range homes {
		agent, home := agent, home
		client := c.service.ClientFor(c.nodes[0])
		eventually(t, 15*time.Second, func(ctx context.Context) error {
			got, err := client.Locate(ctx, agent)
			if err != nil {
				return err
			}
			if got != home {
				return fmt.Errorf("locate %s = %s, want %s", agent, got, home)
			}
			return nil
		})
	}
	close(stop)
	wg.Wait()

	if len(stale) > 0 {
		t.Errorf("stale locations answered during/after the crash: %v", stale)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("agentloc_failover_total", "tier", "iagent"); got != 1 {
		t.Errorf("agentloc_failover_total{tier=iagent} = %d, want exactly 1", got)
	}
	if snap.Counter("agentloc_iagent_heartbeats_total") == 0 {
		t.Error("no heartbeats counted over the run")
	}
}
