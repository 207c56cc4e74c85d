package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// newReplicatedCluster deploys a mechanism with one HAgent replica on the
// last node.
func newReplicatedCluster(t *testing.T, numNodes int) (*testCluster, HAgentRef) {
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

	cfg := quietConfig()
	ref := HAgentRef{Agent: "hagent-replica-1", Node: nodes[numNodes-1].ID()}
	cfg.HAgentReplicas = []HAgentRef{ref}
	cfg.HAgentFallbacks = []HAgentRef{ref}

	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}

	// Launch the replica with the same initial state the primary started
	// from (version 1, iagent-1 everywhere).
	initial := &State{
		Ver:       1,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": nodes[0].ID()},
	}
	refs, err := DeployReplicas(svc.Config(), initial.DTO(), nodes[numNodes-1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0] != ref {
		t.Fatalf("DeployReplicas refs = %v, want %v", refs, ref)
	}
	return &testCluster{nodes: nodes, service: svc}, ref
}

func TestReplicaReceivesStatePushes(t *testing.T) {
	c, ref := newReplicatedCluster(t, 3)
	ctx := testCtx(t)
	cfg := c.service.Config()

	// Register agents and force a split through the HAgent protocol.
	homes := registerMany(t, c, ctx, 16)
	perAgent := make(map[ids.AgentID]uint64, len(homes))
	for agent := range homes {
		perAgent[agent] = 5
	}
	var resp RehashResp
	err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestSplit,
		RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("split status = %v", resp.Status)
	}

	// The replica must now hold version 2.
	var hash GetHashResp
	err = c.nodes[0].CallAgent(ctx, ref.Node, ref.Agent, KindGetHash, GetHashReq{}, &hash)
	if err != nil {
		t.Fatal(err)
	}
	if hash.Unchanged {
		t.Fatal("replica returned unchanged for a fresh read")
	}
	st, err := FromDTO(hash.State)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ver != 2 {
		t.Errorf("replica state version = %d, want 2", st.Ver)
	}
	if st.Tree.NumLeaves() != 2 {
		t.Errorf("replica tree has %d leaves, want 2", st.Tree.NumLeaves())
	}
}

func TestReplicaDeclinesRehashUntilPromoted(t *testing.T) {
	c, ref := newReplicatedCluster(t, 2)
	ctx := testCtx(t)

	var resp RehashResp
	err := c.nodes[0].CallAgent(ctx, ref.Node, ref.Agent, KindRequestMerge,
		RequestMergeReq{IAgent: "iagent-1", HashVersion: 1}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusIgnored {
		t.Errorf("standby rehash status = %v, want ignored", resp.Status)
	}

	var prom PromoteResp
	if err := c.nodes[0].CallAgent(ctx, ref.Node, ref.Agent, KindPromote, nil, &prom); err != nil {
		t.Fatal(err)
	}
	if prom.HashVersion != 1 {
		t.Errorf("promoted at version %d, want 1", prom.HashVersion)
	}
	// A promoted replica accepts rehash requests (this one is still
	// declined — last leaf — but by the merge rule, not the standby rule,
	// which is indistinguishable here; exercise a split instead).
	homes := registerMany(t, c, ctx, 8)
	perAgent := make(map[ids.AgentID]uint64, len(homes))
	for agent := range homes {
		perAgent[agent] = 5
	}
	err = c.nodes[0].CallAgent(ctx, ref.Node, ref.Agent, KindRequestSplit,
		RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Errorf("promoted split status = %v, want ok", resp.Status)
	}
}

func TestLHAgentFailsOverToReplicaForReads(t *testing.T) {
	c, _ := newReplicatedCluster(t, 3)
	ctx := testCtx(t)
	cfg := c.service.Config()

	// Register only from node-0 so node-1's LHAgent stays cold (no
	// cached copy).
	homes := make(map[ids.AgentID]platform.NodeID, 6)
	reg := c.service.ClientFor(c.nodes[0])
	for i := 0; i < 6; i++ {
		agent := ids.AgentID(fmt.Sprintf("ft-agent-%d", i))
		if _, err := reg.Register(ctx, agent); err != nil {
			t.Fatal(err)
		}
		homes[agent] = c.nodes[0].ID()
	}

	// Kill the primary HAgent. Reads (whois via LHAgent fetch) must still
	// work through the replica; agents stay locatable.
	if err := c.nodes[0].Kill(cfg.HAgent); err != nil {
		t.Fatal(err)
	}

	// Node-1's cold LHAgent must fetch fresh — through the replica.
	client := c.service.ClientFor(c.nodes[1])
	for agent, home := range homes {
		got, err := client.Locate(ctx, agent)
		if err != nil {
			t.Fatalf("locate %s with dead primary: %v", agent, err)
		}
		if got != home {
			t.Errorf("locate %s = %s, want %s", agent, got, home)
		}
	}
}

// TestExplicitPromotionSurvivesRestart: an operator's KindPromote is the same
// promotion as the lease detector's — counted, logged and persisted — so a
// durable node that crashes after it recovers the replica as the primary,
// fenced one version past the state it was promoted at, not as a standby.
func TestExplicitPromotionSurvivesRestart(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	caller, err := platform.NewNode(platform.Config{ID: "node-0", Link: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { caller.Close() })
	// The replica's node is durableNode's, with an event log.
	dir, reg, trc := t.TempDir(), metrics.New(), trace.NewLog(64)
	store, err := snapshot.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	store.SyncOnAppend = true
	host, err := platform.NewNode(platform.Config{ID: "node-1", Link: net, Metrics: reg, Durable: store, Trace: trc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { host.Close(); store.Close() })

	cfg := quietConfig()
	initial := &State{
		Ver:       1,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": caller.ID()},
	}
	refs, err := DeployReplicas(cfg, initial.DTO(), []*platform.Node{host})
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[0]
	ctx := testCtx(t)
	var prom PromoteResp
	if err := caller.CallAgent(ctx, ref.Node, ref.Agent, KindPromote, nil, &prom); err != nil {
		t.Fatal(err)
	}
	if prom.HashVersion != 1 {
		t.Fatalf("promoted at version %d, want 1", prom.HashVersion)
	}
	if got := reg.Snapshot().Counter("agentloc_failover_total", "tier", "hagent"); got != 1 {
		t.Errorf("agentloc_failover_total{tier=hagent} = %d after the promotion, want 1", got)
	}
	if ev := trc.Filter("failover.promote"); len(ev) != 1 {
		t.Errorf("failover.promote events = %v, want one", ev)
	}
	// A second request finds a primary: nothing more to promote or count.
	if err := caller.CallAgent(ctx, ref.Node, ref.Agent, KindPromote, nil, &prom); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("agentloc_failover_total", "tier", "hagent"); got != 1 {
		t.Errorf("agentloc_failover_total{tier=hagent} = %d after promoting a primary, want still 1", got)
	}

	host.Crash()
	host2, _ := durableNode(t, net, "node-1", dir)
	rep, err := RecoverNode(host2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HAgents) != 1 || rep.HAgents[0] != ref.Agent {
		t.Fatalf("recovered HAgents %v, want [%s]", rep.HAgents, ref.Agent)
	}
	var stats HashStatsResp
	if err := caller.CallAgent(ctx, ref.Node, ref.Agent, KindHashStats, nil, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Standby || stats.HashVersion != 2 {
		t.Errorf("recovered as standby=%v at version %d, want the primary fenced at version 2", stats.Standby, stats.HashVersion)
	}
}

// TestStandbySendsBeatsToLivePrimary: a standby HAgent keeps the lease of a
// heartbeat it receives but answers it Ignored while it hears the primary, so
// a walk that starts at the standby — the HAgent that answered last — ends at
// the primary and moves the hint back there. Once the primary has gone quiet
// past its lease, the standby's answer ends the walk.
func TestStandbySendsBeatsToLivePrimary(t *testing.T) {
	goroutinesReturn(t)
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, 2)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net, Clock: fake})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	releasesAll(t, nodes)
	cfg := failoverConfig()
	standby := HAgentRef{Agent: "hagent-replica-1", Node: "node-1"}
	cfg.HAgentReplicas, cfg.HAgentFallbacks = []HAgentRef{standby}, []HAgentRef{standby}
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg = svc.Config()
	initial := &State{Ver: 1, Tree: hashtree.New("iagent-1"), Locations: map[ids.AgentID]platform.NodeID{"iagent-1": "node-0"}}
	if _, err := DeployReplicas(cfg, initial.DTO(), nodes[1:]); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	// beat walks from the standby, as a leaf's heartbeat does after the
	// standby answered it last.
	beat := func() (HAgentRef, int32, error) {
		var last atomic.Int32
		last.Store(1)
		var ack Ack
		src, err := askHAgents(ctx, cfg, NodeCaller{N: nodes[0]}, &last, KindHeartbeat, HeartbeatReq{IAgent: "iagent-1"}, &ack,
			func(err error) bool { return err == nil && ack.Status == StatusOK })
		return src, last.Load(), err
	}
	if src, last, err := beat(); err != nil || src.Agent != cfg.HAgent || last != 0 {
		t.Errorf("with the primary alive a beat ended at %s (%v) and left the hint at %d; want the primary and 0", src.Agent, err, last)
	}
	if err := nodes[0].Kill(cfg.HAgent); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		fake.Advance(cfg.HeartbeatInterval)
		if src, last, err := beat(); err == nil && src == standby && last == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby never ended a beat's walk after the primary went quiet")
		}
	}
}
