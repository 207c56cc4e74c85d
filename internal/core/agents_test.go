package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// TestIAgentUnknownKind exercises the behaviour-level error paths directly
// through a single-node platform.
func TestIAgentUnknownKind(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 1)
	ctx := testCtx(t)
	err := c.nodes[0].CallAgent(ctx, c.nodes[0].ID(), "iagent-1", "bogus.kind", nil, nil)
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *RemoteError", err)
	}
	if !strings.Contains(re.Msg, "unknown request kind") {
		t.Errorf("Msg = %q", re.Msg)
	}
}

func TestHAgentUnknownKind(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 1)
	ctx := testCtx(t)
	cfg := c.service.Config()
	err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, "bogus.kind", nil, nil)
	if err == nil {
		t.Error("unknown kind accepted by HAgent")
	}
}

func TestLHAgentUnknownKind(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 1)
	ctx := testCtx(t)
	err := c.nodes[0].CallAgent(ctx, c.nodes[0].ID(), LHAgentID(c.nodes[0].ID()), "bogus.kind", nil, nil)
	if err == nil {
		t.Error("unknown kind accepted by LHAgent")
	}
}

func TestGetHashUnchangedSemantics(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 1)
	ctx := testCtx(t)
	cfg := c.service.Config()

	var resp GetHashResp
	// Version 1 is current → IfNewerThan 1 reports unchanged.
	err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindGetHash, GetHashReq{IfNewerThan: 1}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Unchanged {
		t.Error("IfNewerThan=current did not report unchanged")
	}
	// IfNewerThan 0 returns the state. A fresh response struct matters:
	// gob omits zero-valued fields, so decoding into a reused struct
	// would leave the previous Unchanged=true in place.
	var resp2 GetHashResp
	err = c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindGetHash, GetHashReq{}, &resp2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Unchanged {
		t.Error("fresh read reported unchanged")
	}
	st, err := FromDTO(resp2.State)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ver != 1 || st.Tree.NumLeaves() != 1 {
		t.Errorf("state = v%d with %d leaves", st.Ver, st.Tree.NumLeaves())
	}
}

func TestIAgentAdoptStateIgnoresStale(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 1)
	ctx := testCtx(t)

	// Push the IAgent's own current state (same version): must be ignored.
	st := &State{
		Ver:       1,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": c.nodes[0].ID()},
	}
	var ack Ack
	err := c.nodes[0].CallAgent(ctx, c.nodes[0].ID(), "iagent-1", KindAdoptState, AdoptStateReq{State: st.DTO()}, &ack)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != StatusIgnored {
		t.Errorf("stale adopt status = %v, want ignored", ack.Status)
	}
}

func TestIAgentHandoffCarriesLoad(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 1)
	ctx := testCtx(t)

	// Hand entries straight to the IAgent; they must become locatable.
	req := HandoffReq{Records: stream(snapshot.Record{Op: snapshot.OpPut, Agent: "adoptee", Node: string(c.nodes[0].ID()), Load: 7})}
	var ack Ack
	err := c.nodes[0].CallAgent(ctx, c.nodes[0].ID(), "iagent-1", KindHandoff, req, &ack)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != StatusOK {
		t.Fatalf("handoff status = %v", ack.Status)
	}
	where, err := c.service.ClientFor(c.nodes[0]).Locate(ctx, "adoptee")
	if err != nil {
		t.Fatal(err)
	}
	if where != c.nodes[0].ID() {
		t.Errorf("adoptee at %s", where)
	}
}

func TestIAgentRuntimeInitFailure(t *testing.T) {
	// An IAgent launched with a corrupt state snapshot must fail requests
	// with a clear error instead of panicking.
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	n, err := platform.NewNode(platform.Config{ID: "solo", Link: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	bad := &IAgentBehavior{Cfg: quietConfig(), StateSnapshot: StateDTO{}} // no tree
	if err := n.Launch("broken-iagent", bad); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	err = n.CallAgent(ctx, "solo", "broken-iagent", KindLocate, LocateReq{Agent: "x"}, nil)
	if err == nil {
		t.Error("request against broken IAgent succeeded")
	}
}

func TestLHAgentRefreshFastPath(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	lh := LHAgentID(c.nodes[1].ID())

	// Warm the copy.
	var who WhoisResp
	if err := c.nodes[1].CallAgent(ctx, c.nodes[1].ID(), lh, KindWhois, WhoisReq{Target: "anyone"}, &who); err != nil {
		t.Fatal(err)
	}
	if who.HashVersion != 1 {
		t.Fatalf("whois version = %d, want 1", who.HashVersion)
	}
	// A refresh to a version we already have must not change anything
	// (and must not error even if the HAgent were unreachable — it is
	// the no-contact fast path).
	var resp RefreshResp
	if err := c.nodes[1].CallAgent(ctx, c.nodes[1].ID(), lh, KindRefresh, RefreshReq{MinVersion: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.HashVersion != 1 {
		t.Errorf("refresh version = %d, want 1", resp.HashVersion)
	}
}

func TestLHAgentEagerAdopt(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	lh := LHAgentID(c.nodes[1].ID())

	// Push a newer state directly (what EagerPropagation does).
	st := &State{
		Ver:       9,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": c.nodes[0].ID()},
	}
	var resp RefreshResp
	err := c.nodes[1].CallAgent(ctx, c.nodes[1].ID(), lh, KindLHAdopt, AdoptLHStateReq{State: st.DTO()}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.HashVersion != 9 {
		t.Errorf("adopted version = %d, want 9", resp.HashVersion)
	}
	// Whois now answers from the pushed copy without contacting the
	// HAgent.
	var who WhoisResp
	if err := c.nodes[1].CallAgent(ctx, c.nodes[1].ID(), lh, KindWhois, WhoisReq{Target: "x"}, &who); err != nil {
		t.Fatal(err)
	}
	if who.HashVersion != 9 {
		t.Errorf("whois version = %d, want 9", who.HashVersion)
	}
	// An older push is ignored.
	st.Ver = 3
	if err := c.nodes[1].CallAgent(ctx, c.nodes[1].ID(), lh, KindLHAdopt, AdoptLHStateReq{State: st.DTO()}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.HashVersion != 9 {
		t.Errorf("version after stale push = %d, want 9", resp.HashVersion)
	}
}

func TestEagerPropagationEndToEnd(t *testing.T) {
	cfg := quietConfig()
	cfg.EagerPropagation = true
	c := newTestCluster(t, cfg, 3)
	ctx := testCtx(t)
	deployed := c.service.Config()

	homes := registerMany(t, c, ctx, 12)
	perAgent := make(map[ids.AgentID]uint64, len(homes))
	for agent := range homes {
		perAgent[agent] = 4
	}
	var resp RehashResp
	err := c.nodes[0].CallAgent(ctx, deployed.HAgentNode, deployed.HAgent, KindRequestSplit,
		RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("split status = %v", resp.Status)
	}
	// Every LHAgent already has version 2 — whois answers v2 with no
	// refresh round trip.
	for _, n := range c.nodes {
		var who WhoisResp
		if err := n.CallAgent(ctx, n.ID(), LHAgentID(n.ID()), KindWhois, WhoisReq{Target: "x"}, &who); err != nil {
			t.Fatal(err)
		}
		if who.HashVersion != 2 {
			t.Errorf("LHAgent at %s has version %d, want 2 (eager push)", n.ID(), who.HashVersion)
		}
	}
}

func TestRehashEventsTraced(t *testing.T) {
	// Build a traced cluster by hand (newTestCluster doesn't wire traces).
	log := trace.NewLog(64)
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	var nodes []*platform.Node
	for i := 0; i < 2; i++ {
		n, err := platform.NewNode(platform.Config{
			ID:    platform.NodeID(fmt.Sprintf("node-%d", i)),
			Link:  net,
			Trace: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes = append(nodes, n)
	}
	svc, err := Deploy(context.Background(), quietConfig(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	cfg := svc.Config()

	// Register agents and force a split, then a merge.
	client := svc.ClientFor(nodes[0])
	perAgent := make(map[ids.AgentID]uint64)
	for i := 0; i < 12; i++ {
		id := ids.AgentID(fmt.Sprintf("tr-%d", i))
		if _, err := client.Register(ctx, id); err != nil {
			t.Fatal(err)
		}
		perAgent[id] = 3
	}
	var resp RehashResp
	err = nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestSplit,
		RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("split: %v / %v", err, resp.Status)
	}
	err = nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestMerge,
		RequestMergeReq{IAgent: "iagent-2", HashVersion: resp.HashVersion}, &resp)
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("merge: %v / %v", err, resp.Status)
	}

	if got := len(log.Filter("rehash.split")); got != 1 {
		t.Errorf("split events = %d, want 1\n%s", got, log.Render())
	}
	if got := len(log.Filter("rehash.merge")); got != 1 {
		t.Errorf("merge events = %d, want 1\n%s", got, log.Render())
	}
	if got := len(log.Filter("iagent.")); got < 1 {
		t.Errorf("iagent events = %d, want ≥ 1\n%s", got, log.Render())
	}
}
