package core

import (
	"fmt"
	"testing"
	"time"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
)

func TestResidenceTableBindMoveUnbind(t *testing.T) {
	rt := NewResidenceTable()
	rt.Bind("a", "res@x", "node-0", false)
	rt.Bind("b", "res@x", "node-0", false)

	if r, n, ok := rt.Binding("a"); !ok || r != "res@x" || n != "node-0" {
		t.Fatalf("Binding(a) = %s, %s, %v", r, n, ok)
	}
	members, ok := rt.Members("res@x")
	if !ok || len(members) != 2 {
		t.Fatalf("Members = %v, %v; want both members", members, ok)
	}
	// A bound update is the freshest word on the group: it re-points the
	// handle for every member.
	rt.Bind("b", "res@x", "node-1", false)
	for _, a := range []ids.AgentID{"a", "b"} {
		if _, n, ok := rt.Binding(a); !ok || n != "node-1" {
			t.Errorf("Binding(%s) after the move = %s, %v", a, n, ok)
		}
	}

	// A bind into another handle moves the agent between groups.
	rt.Bind("a", "res@y", "node-2", false)
	if members, _ := rt.Members("res@x"); len(members) != 1 || members[0] != "b" {
		t.Errorf("res@x members after rebind = %v, want [b]", members)
	}

	// Unbinding the last member prunes the handle; it then reports unknown so
	// callers fall back to per-member updates.
	if !rt.Unbind("b") {
		t.Fatal("Unbind(b) = false")
	}
	if _, ok := rt.Members("res@x"); ok {
		t.Error("memberless handle still known")
	}
	if _, _, ok := rt.Binding("b"); ok {
		t.Error("unbound agent still resolves")
	}
	if rt.Unbind("b") {
		t.Error("second Unbind(b) = true")
	}
}

// TestResidenceTableOverlayAndAdopt: the reader overlays a bound agent's
// entry with its handle's address and leaves an unbound one alone, and a
// handed-off binding never rolls back an address the receiver already keeps.
func TestResidenceTableOverlayAndAdopt(t *testing.T) {
	at := func(agent ids.AgentID, node platform.NodeID, handle ids.ResidenceID, handoff bool) change {
		return change{agent: agent, hash: agent.Hash64(), node: node, handle: handle, handoff: handoff}
	}
	dst := newLeafState()
	dst.apply([]change{at("c", "node-9", "res@x", false)})
	dst.apply([]change{at("a", "node-0", "res@x", true), at("loner", "node-5", "", true)})

	got := make(map[ids.AgentID]record)
	dst.each(nil, func(r record) bool {
		got[r.agent] = r
		return true
	})
	for agent, want := range map[ids.AgentID]record{
		"a":     {node: "node-9", handle: "res@x"},
		"c":     {node: "node-9", handle: "res@x"},
		"loner": {node: "node-5"},
	} {
		r, ok := dst.get(agent)
		if !ok || r.node != want.node || r.handle != want.handle || got[agent].node != r.node || got[agent].handle != r.handle {
			t.Errorf("%s: get = %+v, %v; each = %+v; want at %s bound to %q", agent, r, ok, got[agent], want.node, want.handle)
		}
	}
	if moves, ok := dst.move("res@x", "node-1"); !ok || len(moves) != 2 {
		t.Errorf("moving res@x changes %d members, want a and c", len(moves))
	}

	// A handed-off record binds its agent to its handle at its address; one
	// without a handle arrives unbound.
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	serve(t, leaf, ctx, KindHandoff, HandoffReq{Records: stream(
		snapshot.Record{Op: snapshot.OpPut, Agent: "a", Node: "node-0", Handle: "res@x"},
		snapshot.Record{Op: snapshot.OpPut, Agent: "loner", Node: "node-3"},
	)})
	if r, ok := leaf.leaf.get("a"); !ok || r.handle != "res@x" || r.node != "node-0" {
		t.Errorf("handed-off member = %+v, %v; want bound to res@x at node-0", r, ok)
	}
	if r, ok := leaf.leaf.get("loner"); !ok || r.handle != "" || r.node != "node-3" {
		t.Errorf("loner = %+v, %v; want unbound at node-3", r, ok)
	}
}

func TestResidenceGroupMoveIsOneRPC(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	const swarm = 8
	reg := c.service.ClientFor(c.nodes[0])
	for i := 0; i < swarm; i++ {
		if _, err := reg.Register(ctx, ids.AgentID(fmt.Sprintf("swarm-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	cc := newCountingCaller(NodeCaller{N: c.nodes[0]})
	group := NewClient(cc, quietConfig()).ResidenceGroup("res@swarm")
	for i := 0; i < swarm; i++ {
		if err := group.Join(ctx, ids.AgentID(fmt.Sprintf("swarm-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(group.Members()); got != swarm {
		t.Fatalf("group tracks %d members, want %d", got, swarm)
	}

	// The group migration: one RPC total, no per-member updates.
	updatesBefore, movesBefore := cc.count(KindUpdate), cc.count(KindResidenceMove)
	if err := group.MoveTo(ctx, c.nodes[1].ID()); err != nil {
		t.Fatal(err)
	}
	if got := cc.count(KindResidenceMove) - movesBefore; got != 1 {
		t.Errorf("residence-move RPCs = %d, want 1 for %d co-residents", got, swarm)
	}
	if got := cc.count(KindUpdate) - updatesBefore; got != 0 {
		t.Errorf("per-member update RPCs during group move = %d, want 0", got)
	}

	// Every member locates at the destination — the IAgent resolves the
	// handle server-side, no extra hop for the querier.
	probe := newCountingCaller(NodeCaller{N: c.nodes[2]})
	querier := NewClient(probe, quietConfig())
	for i := 0; i < swarm; i++ {
		where, err := querier.Locate(ctx, ids.AgentID(fmt.Sprintf("swarm-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if where != c.nodes[1].ID() {
			t.Errorf("swarm-%d at %s, want %s", i, where, c.nodes[1].ID())
		}
	}
	// whois + locate per query: the handle indirection must not add hops.
	if got := probe.total(); got > 2*swarm {
		t.Errorf("locate RPCs = %d for %d queries, residence resolution added hops", got, swarm)
	}
}

// TestResidenceComigrationReduction: migrating a swarm of 16 costs 16 update
// RPCs per migration when each member reports its own move, and one when the
// swarm is bound to a residence handle. RPCs are counted at the caller, so
// neither batching nor retries can hide traffic.
func TestResidenceComigrationReduction(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	const swarm, migrations = 16, 5
	reg := c.service.ClientFor(c.nodes[0])
	assigns := make([]Assignment, swarm)
	for i := range assigns {
		a, err := reg.Register(ctx, ids.AgentID(fmt.Sprintf("swarm-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		assigns[i] = a
	}

	cc := newCountingCaller(NodeCaller{N: c.nodes[0]})
	client := NewClient(cc, quietConfig())
	updateRPCs := func() int {
		return cc.count(KindUpdate) + cc.count(KindUpdateBatch) + cc.count(KindResidenceMove)
	}
	dest := func(m int) platform.NodeID { return c.nodes[(m+1)%len(c.nodes)].ID() }

	// The per-agent baseline: every member reports its own move.
	before := updateRPCs()
	for m := 0; m < migrations; m++ {
		for i := range assigns {
			if _, err := client.MoveNotifyTo(ctx, ids.AgentID(fmt.Sprintf("swarm-%d", i)), dest(m), assigns[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := updateRPCs() - before; got != swarm*migrations {
		t.Errorf("per-agent migrations sent %d update RPCs, want %d (one per member per migration)", got, swarm*migrations)
	}

	group := client.ResidenceGroup("res@swarm")
	for i := 0; i < swarm; i++ {
		if err := group.Join(ctx, ids.AgentID(fmt.Sprintf("swarm-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// The group migrations: one handle re-point each, independent of swarm size.
	before = updateRPCs()
	for m := 0; m < migrations; m++ {
		if err := group.MoveTo(ctx, dest(m)); err != nil {
			t.Fatal(err)
		}
	}
	if got := updateRPCs() - before; got != migrations {
		t.Errorf("residence migrations sent %d update RPCs, want %d (one per migration)", got, migrations)
	}
}

func TestResidenceGroupLeaveRestoresPerAgentUpdates(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)

	client := c.service.ClientFor(c.nodes[0])
	if _, err := client.Register(ctx, "leaver"); err != nil {
		t.Fatal(err)
	}
	group := client.ResidenceGroup("res@g")
	if err := group.Join(ctx, "leaver"); err != nil {
		t.Fatal(err)
	}
	if err := group.Leave(ctx, "leaver"); err != nil {
		t.Fatal(err)
	}
	// After leaving, a group move must not drag the agent along.
	if err := group.MoveTo(ctx, c.nodes[1].ID()); err != nil {
		t.Fatal(err)
	}
	where, err := c.service.ClientFor(c.nodes[1]).Locate(ctx, "leaver")
	if err != nil {
		t.Fatal(err)
	}
	if where != c.nodes[0].ID() {
		t.Errorf("left member located at %s, want %s (dragged by group move)", where, c.nodes[0].ID())
	}
}

func TestResidenceGroupFallbackRebindsStaleRecord(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)

	const members = 3
	reg := c.service.ClientFor(c.nodes[0])
	for i := 0; i < members; i++ {
		if _, err := reg.Register(ctx, ids.AgentID(fmt.Sprintf("fb-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cc := newCountingCaller(NodeCaller{N: c.nodes[0]})
	group := NewClient(cc, quietConfig()).ResidenceGroup("res@fb")
	for i := 0; i < members; i++ {
		if err := group.Join(ctx, ids.AgentID(fmt.Sprintf("fb-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Stale the grouping out from under the client: individually-reported
	// moves unbind every member, so the IAgent prunes the handle — the same
	// shape a takeover restore leaves behind.
	for i := 0; i < members; i++ {
		if _, err := reg.MoveNotify(ctx, ids.AgentID(fmt.Sprintf("fb-%d", i)), Assignment{}); err != nil {
			t.Fatal(err)
		}
	}

	// The group move must heal: the unknown-handle answer degrades it to
	// per-member bound updates that re-create the record at the destination.
	if err := group.MoveTo(ctx, c.nodes[1].ID()); err != nil {
		t.Fatal(err)
	}
	if got := cc.count(KindUpdate); got < members {
		t.Errorf("fallback sent %d per-member updates, want >= %d", got, members)
	}
	for i := 0; i < members; i++ {
		where, err := reg.Locate(ctx, ids.AgentID(fmt.Sprintf("fb-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if where != c.nodes[1].ID() {
			t.Errorf("fb-%d at %s after fallback move, want %s", i, where, c.nodes[1].ID())
		}
	}

	// The rebind re-formed the record: the next group move is O(1) again.
	updatesBefore, movesBefore := cc.count(KindUpdate), cc.count(KindResidenceMove)
	if err := group.MoveTo(ctx, c.nodes[0].ID()); err != nil {
		t.Fatal(err)
	}
	if got := cc.count(KindResidenceMove) - movesBefore; got != 1 {
		t.Errorf("post-heal residence-move RPCs = %d, want 1", got)
	}
	if got := cc.count(KindUpdate) - updatesBefore; got != 0 {
		t.Errorf("post-heal per-member updates = %d, want 0", got)
	}
}

func TestResidenceBindingsSurviveRehashHandoff(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)

	// Build the post-split state up front so we can pick a member the NEW
	// leaf will own.
	tree1 := hashtree.New("iagent-1")
	cands, err := tree1.SplitCandidates("iagent-1", 4)
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := tree1.ApplySplit(cands[len(cands)-1], "iagent-2")
	if err != nil {
		t.Fatal(err)
	}
	st2 := &State{
		Ver:  2,
		Tree: tree2,
		Locations: map[ids.AgentID]platform.NodeID{
			"iagent-1": c.nodes[0].ID(),
			"iagent-2": c.nodes[1].ID(),
		},
	}
	var member ids.AgentID
	for i := 0; i < 10000; i++ {
		id := ids.AgentID(fmt.Sprintf("hand-%d", i))
		if owner, _, err := st2.OwnerOf(id); err == nil && owner == "iagent-2" {
			member = id
			break
		}
	}
	if member == "" {
		t.Fatal("no agent id owned by the new leaf found")
	}

	// Register and bind the member while iagent-1 still owns everything.
	client := c.service.ClientFor(c.nodes[0])
	if _, err := client.Register(ctx, member); err != nil {
		t.Fatal(err)
	}
	if _, err := client.MoveNotifyBound(ctx, member, "res@hand", Assignment{}); err != nil {
		t.Fatal(err)
	}

	// Launch the new IAgent and push the split to iagent-1: the handoff
	// must carry the member's binding and the handle's address with it.
	cfg := quietConfig()
	if err := c.nodes[1].Launch("iagent-2", &IAgentBehavior{Cfg: cfg, StateSnapshot: st2.DTO()}); err != nil {
		t.Fatal(err)
	}
	var ack Ack
	if err := c.nodes[0].CallAgent(ctx, c.nodes[0].ID(), "iagent-1", KindAdoptState, AdoptStateReq{State: st2.DTO()}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Status != StatusOK {
		t.Fatalf("adopt split status = %v", ack.Status)
	}

	// Direct calls to the new owner (the manual v2 state never reached the
	// HAgent, so whois would still answer v1): the binding moved, so a
	// residence move at iagent-2 covers the member and locate resolves it.
	var mresp ResidenceMoveResp
	if err := c.nodes[0].CallAgent(ctx, c.nodes[1].ID(), "iagent-2", KindResidenceMove,
		ResidenceMoveReq{Residence: "res@hand", Node: c.nodes[1].ID()}, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Status != StatusOK || mresp.Bound != 1 {
		t.Fatalf("residence move at absorber = %v, bound %d; binding lost in handoff", mresp.Status, mresp.Bound)
	}
	var lresp LocateResp
	if err := c.nodes[0].CallAgent(ctx, c.nodes[1].ID(), "iagent-2", KindLocate, LocateReq{Agent: member}, &lresp); err != nil {
		t.Fatal(err)
	}
	if lresp.Status != StatusOK || lresp.Node != c.nodes[1].ID() {
		t.Fatalf("locate at absorber = %v @ %s, want OK @ %s", lresp.Status, lresp.Node, c.nodes[1].ID())
	}

	// And the old owner no longer holds the binding: its record was handed
	// off, not duplicated.
	if err := c.nodes[0].CallAgent(ctx, c.nodes[0].ID(), "iagent-1", KindResidenceMove,
		ResidenceMoveReq{Residence: "res@hand", Node: c.nodes[0].ID()}, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Status != StatusUnknownAgent {
		t.Errorf("old owner still answers %v for the handed-off handle", mresp.Status)
	}
}

func TestResidenceMoveInvalidatesCachedAddressViaFence(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	reg := c.service.ClientFor(c.nodes[0])
	if _, err := reg.Register(ctx, "swarm-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(ctx, "bystander"); err != nil {
		t.Fatal(err)
	}
	group := reg.ResidenceGroup("res@fence")
	if err := group.Join(ctx, "swarm-a"); err != nil {
		t.Fatal(err)
	}

	cfg := quietConfig()
	cfg.LocateCacheTTL = time.Hour // the fence, not the TTL, must do the work
	cc := newCountingCaller(NodeCaller{N: c.nodes[1]})
	cached := NewClient(cc, cfg)
	if where, err := cached.Locate(ctx, "swarm-a"); err != nil || where != c.nodes[0].ID() {
		t.Fatalf("locate swarm-a = %s, %v", where, err)
	}

	// The group migrates. The cached client has not heard anything and,
	// within TTL with no version bump, is allowed its stale answer.
	if err := group.MoveTo(ctx, c.nodes[2].ID()); err != nil {
		t.Fatal(err)
	}
	locatesBefore := cc.count(KindLocate)
	if where, err := cached.Locate(ctx, "swarm-a"); err != nil || where != c.nodes[0].ID() {
		t.Fatalf("pre-fence cached locate = %s, %v (want stale cached answer)", where, err)
	}
	if cc.count(KindLocate) != locatesBefore {
		t.Fatal("pre-fence locate was not served from cache")
	}

	// A rehash bumps the version (same single leaf: only the version
	// changes). The first reply carrying it fences the cache, and the stale
	// entry must give way to the residence-resolved address.
	st := &State{
		Ver:       2,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": c.nodes[0].ID()},
	}
	var ack Ack
	if err := c.nodes[0].CallAgent(ctx, c.nodes[0].ID(), "iagent-1", KindAdoptState, AdoptStateReq{State: st.DTO()}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Status != StatusOK {
		t.Fatalf("adopt v2 status = %v", ack.Status)
	}
	if _, err := cached.Locate(ctx, "bystander"); err != nil {
		t.Fatal(err)
	}
	where, err := cached.Locate(ctx, "swarm-a")
	if err != nil {
		t.Fatal(err)
	}
	if where != c.nodes[2].ID() {
		t.Fatalf("post-fence locate = %s, want %s (stale cached address survived the residence move)", where, c.nodes[2].ID())
	}
}
