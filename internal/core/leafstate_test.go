package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"agentloc/internal/capindex"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/raceflag"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
)

// modelHost hosts a leaf with no Run loop, so nothing but the test drives it,
// and hands the test the leaf's platform.Context on a "probe" request.
type modelHost struct {
	leaf *IAgentBehavior
	ctx  chan *platform.Context
}

func (h modelHost) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	if kind == "probe" {
		h.ctx <- ctx
		return nil, nil
	}
	return h.leaf.HandleRequest(ctx, kind, payload)
}

func (h modelHost) snapshotSection(ctx *platform.Context) (snapshot.Section, error) {
	return h.leaf.snapshotSection(ctx)
}

func (h modelHost) HandleConcurrent(ctx *platform.Context, kind string, payload []byte) (any, bool, error) {
	return h.leaf.HandleConcurrent(ctx, kind, payload)
}

// modelEntry is what the model keeps of one agent at one leaf.
type modelEntry struct {
	node   platform.NodeID
	handle ids.ResidenceID
	caps   []string
}

// modelLeaf is the map model of one leaf: its entries and its handles'
// addresses.
type modelLeaf struct {
	entries map[ids.AgentID]modelEntry
	addr    map[ids.ResidenceID]platform.NodeID
}

func newModelLeaf() *modelLeaf {
	return &modelLeaf{entries: map[ids.AgentID]modelEntry{}, addr: map[ids.ResidenceID]platform.NodeID{}}
}

func (m *modelLeaf) resolved(agent ids.AgentID) platform.NodeID {
	if e := m.entries[agent]; e.handle != "" {
		return m.addr[e.handle]
	}
	return m.entries[agent].node
}

// prune forgets handles no entry is bound to.
func (m *modelLeaf) prune() {
	maps.DeleteFunc(m.addr, func(h ids.ResidenceID, _ platform.NodeID) bool {
		for _, e := range m.entries {
			if e.handle == h {
				return false
			}
		}
		return true
	})
}

// views is what the reader must yield of the leaf, loads aside: each agent's
// resolved address, handle and capability set.
func (m *modelLeaf) views() map[ids.AgentID]agentView {
	out := map[ids.AgentID]agentView{}
	for a, e := range m.entries {
		out[a] = agentView{node: m.resolved(a), handle: e.handle, caps: strings.Join(e.caps, ",")}
	}
	return out
}

// heldModel is what the model expects a buddy's held copy to fold to: the
// sender's views at its last push.
type heldModel struct {
	holder ids.AgentID
	views  map[ids.AgentID]agentView
}

// leafModelRun drives real leaves on one durable node and a map model side
// by side.
type leafModelRun struct {
	t     *testing.T
	rng   *rand.Rand
	node  *platform.Node
	store *snapshot.Store
	cfg   Config
	st    *State
	hosts map[ids.AgentID]modelHost
	ctxs  map[ids.AgentID]*platform.Context
	model map[ids.AgentID]*modelLeaf
	held  map[ids.AgentID]heldModel // by sender
	named int
	// What the run exercised, so a seed that skips a path is noticed; single
	// and batched count updates sent alone and in a batch of one.
	single, batched, splits, merges, takeovers, restored, localWins, pushes, dumps int
	// handoffs counts the (sender, receiver) pairs a rehash moved agents
	// between: the handoffs with records in them.
	handoffs int
}

var (
	modelHandles = []ids.ResidenceID{"res@a", "res@b", "res@c"}
	modelNodes   = []platform.NodeID{"node-a", "node-b", "node-c", "node-d"}
	modelTags    = []string{"t0", "t1", "t2", "t3"}
)

func modelPool() []ids.AgentID {
	pool := make([]ids.AgentID, 48)
	for i := range pool {
		pool[i] = ids.AgentID(fmt.Sprintf("m-%02d", i))
	}
	return pool
}

func newLeafModelRun(t *testing.T, seed int64) *leafModelRun {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	store, err := snapshot.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	node, err := platform.NewNode(platform.Config{ID: "node-0", Link: net, Durable: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close(); store.Close() })

	tree := hashtree.New("iagent-1")
	cands, err := tree.SplitCandidates("iagent-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tree, err = tree.ApplySplit(cands[0], "iagent-2"); err != nil {
		t.Fatal(err)
	}
	r := &leafModelRun{
		t: t, rng: rand.New(rand.NewSource(seed)), node: node, store: store, cfg: failoverConfig(),
		st:    &State{Ver: 1, Tree: tree, Locations: map[ids.AgentID]platform.NodeID{"iagent-1": "node-0", "iagent-2": "node-0"}},
		hosts: map[ids.AgentID]modelHost{}, ctxs: map[ids.AgentID]*platform.Context{},
		model: map[ids.AgentID]*modelLeaf{}, held: map[ids.AgentID]heldModel{}, named: 2,
	}
	r.launch("iagent-1", r.st)
	r.launch("iagent-2", r.st)
	return r
}

func (r *leafModelRun) call(ia ids.AgentID, kind string, req, resp any) {
	r.t.Helper()
	if err := r.node.CallAgent(context.Background(), "node-0", ia, kind, req, resp); err != nil {
		r.t.Fatalf("%s at %s: %v", kind, ia, err)
	}
}

// launch hosts a leaf under st and builds its runtime, which persists its
// birth section.
func (r *leafModelRun) launch(name ids.AgentID, st *State) {
	h := modelHost{leaf: &IAgentBehavior{Cfg: r.cfg, StateSnapshot: st.DTO()}, ctx: make(chan *platform.Context, 1)}
	if err := r.node.Launch(name, h); err != nil {
		r.t.Fatal(err)
	}
	r.call(name, "probe", nil, nil)
	r.hosts[name], r.ctxs[name], r.model[name] = h, <-h.ctx, newModelLeaf()
	r.call(name, KindIAgentPing, nil, &Ack{})
}

func (r *leafModelRun) live() []ids.AgentID { return slices.Sorted(maps.Keys(r.hosts)) }

func (r *leafModelRun) owner(st *State, agent ids.AgentID) ids.AgentID {
	owner, _, err := st.OwnerOf(agent)
	if err != nil {
		r.t.Fatal(err)
	}
	return owner
}

func (r *leafModelRun) update(agent ids.AgentID) {
	leaf := r.owner(r.st, agent)
	m := r.model[leaf]
	req := UpdateReq{Agent: agent, Node: modelNodes[r.rng.Intn(len(modelNodes))]}
	if r.rng.Intn(3) == 0 {
		// A bound update mostly joins its group where the group is, and the
		// group moves by residence moves to every leaf holding it, as
		// ResidenceGroup.MoveTo sends them. Now and then a member reports from
		// elsewhere, which re-points the handle at its leaf and moves the
		// other members with it: one logged record, which a held copy's fold
		// replays the same way.
		req.Residence = modelHandles[r.rng.Intn(len(modelHandles))]
		for _, l := range r.live() {
			if at, ok := r.model[l].addr[req.Residence]; ok && r.rng.Intn(4) > 0 {
				req.Node = at
			}
		}
	}
	if r.rng.Intn(3) == 0 {
		req.Capabilities = []string{modelTags[r.rng.Intn(len(modelTags))], modelTags[r.rng.Intn(len(modelTags))]}
	}
	// Most updates come alone, as a move reports, the write's one record on
	// the stack; some ride in a batch of one, as the batcher sends them.
	var ack Ack
	if r.rng.Intn(4) == 0 {
		var resp UpdateBatchResp
		r.call(leaf, KindUpdateBatch, UpdateBatchReq{Updates: []UpdateReq{req}}, &resp)
		if len(resp.Acks) == 1 {
			ack = resp.Acks[0]
		}
		r.batched++
	} else {
		r.call(leaf, KindUpdate, req, &ack)
		r.single++
	}
	if ack.Status != StatusOK {
		r.t.Fatalf("update of %s at %s: %v", agent, leaf, ack.Status)
	}
	e := m.entries[agent]
	e.node, e.handle = req.Node, req.Residence
	if e.handle != "" {
		m.addr[e.handle] = req.Node
	}
	if caps := capindex.Normalize(req.Capabilities); len(caps) > 0 {
		e.caps = caps
	}
	m.entries[agent] = e
	m.prune()
}

func (r *leafModelRun) residenceMove() {
	h, node := modelHandles[r.rng.Intn(len(modelHandles))], modelNodes[r.rng.Intn(len(modelNodes))]
	for _, leaf := range r.live() {
		m := r.model[leaf]
		var resp ResidenceMoveResp
		r.call(leaf, KindResidenceMove, ResidenceMoveReq{Residence: h, Node: node}, &resp)
		if _, known := m.addr[h]; !known {
			if resp.Status != StatusUnknownAgent {
				r.t.Fatalf("%s moved %s, which it does not hold: %v", leaf, h, resp.Status)
			}
			continue
		}
		m.addr[h] = node
		bound := 0
		for a, e := range m.entries {
			if e.handle == h {
				e.node, bound = node, bound+1
				m.entries[a] = e
			}
		}
		if resp.Status != StatusOK || resp.Bound != bound {
			r.t.Fatalf("%s moved %s: %v, %d bound; want %d", leaf, h, resp.Status, resp.Bound, bound)
		}
	}
}

func (r *leafModelRun) deregister(agent ids.AgentID) {
	leaf := r.owner(r.st, agent)
	var ack Ack
	if r.call(leaf, KindDeregister, DeregisterReq{Agent: agent}, &ack); ack.Status != StatusOK {
		r.t.Fatalf("deregister of %s at %s: %v", agent, leaf, ack.Status)
	}
	delete(r.model[leaf].entries, agent)
	r.model[leaf].prune()
}

// push checkpoints a leaf to its buddy. The first push may be refused (no
// base, after a rehash) and re-arm a full one; the second then lands.
func (r *leafModelRun) push(leaf ids.AgentID) {
	for range 2 {
		r.hosts[leaf].leaf.pushCheckpoint(r.ctxs[leaf])
	}
	if buddy := checkpointBuddy(r.st, leaf); buddy != "" {
		r.held[leaf] = heldModel{holder: buddy, views: r.model[leaf].views()}
		r.pushes++
	}
}

// dump is the persister's full snapshot: every leaf's section, taken in its
// mailbox, then the WAL rotates.
func (r *leafModelRun) dump() {
	if n, err := (&Persister{node: r.node, cfg: r.cfg}).WriteFullSnapshot(); err != nil || n != len(r.hosts) {
		r.t.Fatalf("full snapshot: %d sections of %d leaves, %v", n, len(r.hosts), err)
	}
	r.dumps++
}

func (r *leafModelRun) adopt(leaf ids.AgentID, st *State, promote ids.AgentID) {
	var ack Ack
	r.call(leaf, KindAdoptState, AdoptStateReq{State: st.DTO(), PromoteCheckpointOf: promote}, &ack)
	if ack.Status != StatusOK && ack.Status != StatusIgnored {
		r.t.Fatalf("adopt at %s: %v", leaf, ack.Status)
	}
}

// handOff moves the model's entries of from that st gives to another leaf, as
// a handoff does: resolved addresses, bindings that never roll back an address
// the receiver holds, capability sets.
func (r *leafModelRun) handOff(from ids.AgentID, st *State) {
	src := r.model[from]
	receivers := map[ids.AgentID]bool{}
	for a, e := range src.entries {
		to := r.owner(st, a)
		if to == from {
			continue
		}
		receivers[to] = true
		dst, at := r.model[to], src.resolved(a)
		if _, held := dst.addr[e.handle]; e.handle != "" && !held {
			dst.addr[e.handle] = at
		}
		dst.entries[a] = modelEntry{node: at, handle: e.handle, caps: e.caps}
		delete(src.entries, a)
	}
	src.prune()
	r.handoffs += len(receivers)
}

// retire forgets a leaf that left the tree, and every copy it held.
func (r *leafModelRun) retire(leaf ids.AgentID) {
	if err := r.node.Kill(leaf); err != nil {
		r.t.Fatal(err)
	}
	delete(r.hosts, leaf)
	delete(r.model, leaf)
	maps.DeleteFunc(r.held, func(_ ids.AgentID, h heldModel) bool { return h.holder == leaf })
}

func (r *leafModelRun) split(leaf ids.AgentID) {
	cands, err := r.st.Tree.SplitCandidates(string(leaf), maxSimpleBits)
	if err != nil {
		r.t.Fatal(err)
	}
	r.named++
	fresh := ids.AgentID(fmt.Sprintf("iagent-%d", r.named))
	tree, err := r.st.Tree.ApplySplit(cands[r.rng.Intn(len(cands))], string(fresh))
	if err != nil {
		r.t.Fatal(err)
	}
	st := &State{Ver: r.st.Ver + 1, Tree: tree, Locations: maps.Clone(r.st.Locations)}
	st.Locations[fresh] = "node-0"
	r.launch(fresh, st)
	// A complex split can take ids from the leaf's cousins too: every leaf
	// hands off what it no longer owns.
	for _, l := range r.live() {
		r.handOff(l, st)
	}
	for _, l := range append([]ids.AgentID{leaf}, r.live()...) {
		r.adopt(l, st, "")
	}
	r.st = st
	r.splits++
}

func (r *leafModelRun) merge(leaf ids.AgentID) {
	tree, _, err := r.st.Tree.Merge(string(leaf))
	if err != nil {
		r.t.Fatal(err)
	}
	st := &State{Ver: r.st.Ver + 1, Tree: tree, Locations: maps.Clone(r.st.Locations)}
	delete(st.Locations, leaf)
	r.handOff(leaf, st)
	r.adopt(leaf, st, "") // hands off, then retires
	r.retire(leaf)
	for _, l := range r.live() {
		r.adopt(l, st, "")
	}
	r.st = st
	r.merges++
}

// takeover crashes a leaf and lets its siblings absorb it. The buddy holding
// its copy first takes the new state and a few fresh registrations in the
// failed leaf's range, as if the takeover's push reached it late: the
// activation must restore the copy around them (local wins), bindings
// included, re-pointing no handle the buddy holds.
func (r *leafModelRun) takeover(failed ids.AgentID) {
	tree, _, err := r.st.Tree.Merge(string(failed))
	if err != nil {
		r.t.Fatal(err)
	}
	st := &State{Ver: r.st.Ver + 1, Tree: tree, Locations: maps.Clone(r.st.Locations)}
	delete(st.Locations, failed)
	copyOf, held := r.held[failed]
	r.retire(failed)
	if held {
		holder := r.hosts[copyOf.holder].leaf
		holder.mu.Lock()
		if !sameLeaf(r.st.Tree, st.Tree, string(copyOf.holder)) {
			holder.armFullCheckpoint()
		}
		holder.installState(copyOf.holder, st, failed)
		holder.mu.Unlock()
		for _, a := range slices.Sorted(maps.Keys(copyOf.views)) {
			if r.owner(st, a) == copyOf.holder && r.rng.Intn(4) == 0 {
				var ack Ack
				if r.call(copyOf.holder, KindUpdate, UpdateReq{Agent: a, Node: "node-fresh"}, &ack); ack.Status != StatusOK {
					r.t.Fatalf("fresh update of %s at %s: %v", a, copyOf.holder, ack.Status)
				}
				r.model[copyOf.holder].entries[a] = modelEntry{node: "node-fresh"}
				r.localWins++
			}
		}
		m := r.model[copyOf.holder]
		for a, v := range copyOf.views {
			if _, local := m.entries[a]; local || r.owner(st, a) != copyOf.holder {
				continue
			}
			e := modelEntry{node: v.node, handle: v.handle}
			if v.caps != "" {
				e.caps = strings.Split(v.caps, ",")
			}
			if _, held := m.addr[v.handle]; v.handle != "" && !held {
				m.addr[v.handle] = v.node
			}
			m.entries[a] = e
			r.restored++
		}
		delete(r.held, failed)
	}
	for _, l := range r.live() {
		r.adopt(l, st, failed)
	}
	r.st = st
	r.takeovers++
}

// syncHeld drops the expected copies a rehash dropped: installState's carry
// or drop rules are TestRehashResendsOnlyTouchedLeaves' to pin.
func (r *leafModelRun) syncHeld() {
	for src, h := range r.held {
		holder := r.hosts[h.holder].leaf
		holder.mu.Lock()
		_, kept := holder.checkpoints[src]
		holder.mu.Unlock()
		if !kept {
			delete(r.held, src)
		}
	}
}

// check compares every answer the leaves give with the model: locates,
// discovers, held copies, and what a restart would recover.
func (r *leafModelRun) check(step int, op string) {
	t := r.t
	t.Helper()
	for _, a := range modelPool() {
		leaf := r.owner(r.st, a)
		var resp LocateResp
		r.call(leaf, KindLocate, LocateReq{Agent: a}, &resp)
		want := LocateResp{Status: StatusUnknownAgent}
		if _, ok := r.model[leaf].entries[a]; ok {
			want = LocateResp{Status: StatusOK, Node: r.model[leaf].resolved(a)}
		}
		if resp.Status != want.Status || resp.Node != want.Node {
			t.Fatalf("step %d (%s): locate %s at %s = %v %q, want %v %q", step, op, a, leaf, resp.Status, resp.Node, want.Status, want.Node)
		}
	}
	for _, leaf := range r.live() {
		m := r.model[leaf]
		for _, tag := range modelTags {
			var resp DiscoverResp
			r.call(leaf, KindDiscover, DiscoverReq{Caps: []string{tag}}, &resp)
			got, want := map[ids.AgentID]platform.NodeID{}, map[ids.AgentID]platform.NodeID{}
			for _, match := range resp.Matches {
				got[match.Agent] = match.Node
			}
			for a, e := range m.entries {
				if slices.Contains(e.caps, tag) {
					want[a] = m.resolved(a)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): discover %s at %s = %v, want %v", step, op, tag, leaf, got, want)
			}
		}
		holder := r.hosts[leaf].leaf
		holder.mu.Lock()
		for src, ck := range holder.checkpoints {
			h, ok := r.held[src]
			if !ok || h.holder != leaf {
				t.Fatalf("step %d (%s): %s holds a copy of %s nobody pushed it", step, op, leaf, src)
			}
			if got := readLeaf(ck.Log.fold()); !reflect.DeepEqual(got, h.views) {
				t.Fatalf("step %d (%s): %s holds of %s %v;\nwant %v", step, op, leaf, src, got, h.views)
			}
		}
		holder.mu.Unlock()
	}
	for src, h := range r.held {
		holder := r.hosts[h.holder].leaf
		holder.mu.Lock()
		_, ok := holder.checkpoints[src]
		holder.mu.Unlock()
		if !ok {
			t.Fatalf("step %d (%s): %s lost its copy of %s", step, op, h.holder, src)
		}
	}
	rec, err := r.store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	_, recovered := replay(rec, r.cfg, &RecoveryReport{})
	for _, leaf := range r.live() {
		ia := recovered[string(leaf)]
		if ia == nil {
			t.Fatalf("step %d (%s): nothing recovers %s", step, op, leaf)
		}
		got := readLeaf(ia.leaf)
		for a, v := range got {
			v.load = 0
			got[a] = v
		}
		if want := r.model[leaf].views(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): %s recovers %v;\nwant %v", step, op, leaf, got, want)
		}
	}
}

// TestLeafStateReaderAllocs: reading an agent back allocates nothing, bound
// and advertising or not — the capability list is the index's own.
func TestLeafStateReaderAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newLeafState()
	s.apply([]change{
		{agent: "plain", hash: ids.AgentID("plain").Hash64(), node: "node-1"},
		{agent: "member", hash: ids.AgentID("member").Hash64(), node: "node-2", handle: "res@x", caps: []string{"gpu"}},
	})
	for _, agent := range []ids.AgentID{"plain", "member"} {
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := s.get(agent); !ok {
				t.Fatal("lost", agent)
			}
		}); allocs != 0 {
			t.Errorf("get(%s) allocates %.1f times", agent, allocs)
		}
	}
}

// TestApplyKeepsNoView: an id read out of a table — a takeover restores a
// held copy's records — is copied before the binding or the capability index
// keeps it, so dropping the copy frees its key arena; an id decoded from a
// request is kept as it is.
func TestApplyKeepsNoView(t *testing.T) {
	same := func(a, b ids.AgentID) bool { return unsafe.StringData(string(a)) == unsafe.StringData(string(b)) }
	held := newLeafState()
	held.apply([]change{{agent: "swarm-1", hash: ids.AgentID("swarm-1").Hash64(), node: "node-1", handle: "res@x", caps: []string{"gpu"}}})
	rec, ok := held.get("swarm-1")
	if !ok {
		t.Fatal("held copy lost swarm-1")
	}
	decoded := ids.AgentID(fmt.Sprint("plain-", 1))
	live := newLeafState()
	live.apply([]change{
		{agent: rec.agent, hash: rec.hash, node: rec.node, handle: "res@x", caps: rec.caps, view: true},
		{agent: decoded, hash: decoded.Hash64(), node: "node-2", handle: "res@y", caps: []string{"tpu"}},
	})
	members, _ := live.residence.Members("res@x")
	matched := live.caps.Match([]string{"gpu"})
	if len(members) != 1 || len(matched) != 1 || members[0] != rec.agent || matched[0] != rec.agent {
		t.Fatalf("restored swarm-1 is bound as %v and advertises as %v", members, matched)
	}
	if same(members[0], rec.agent) || same(matched[0], rec.agent) {
		t.Error("the live leaf keeps a view of the held copy's arena")
	}
	if members, _ := live.residence.Members("res@y"); len(members) != 1 || !same(members[0], decoded) {
		t.Error("a decoded id was copied before it was kept")
	}
}

// TestLeafStateModel drives seeded random sequences of registers (with and
// without capabilities), bound updates, residence moves, deregisters, splits
// and merges (handoffs between leaves), checkpoint pushes (full and delta),
// takeovers (activation) and full snapshots through real leaves on a durable
// node, and after every step compares each leaf's locate and discover
// answers, the sibling copies held, and what a restart recovers against a
// map model.
func TestLeafStateModel(t *testing.T) {
	pool := modelPool()
	var total leafModelRun
	for seed := int64(1); seed <= 4; seed++ {
		r := newLeafModelRun(t, seed)
		for step := 0; step < 150; step++ {
			leaves := r.live()
			leaf := leaves[r.rng.Intn(len(leaves))]
			op, rehash := "", true
			switch n := r.rng.Intn(100); {
			case n < 45:
				op, rehash = "update", false
				r.update(pool[r.rng.Intn(len(pool))])
			case n < 53:
				op, rehash = "residence move", false
				r.residenceMove()
			case n < 63:
				op, rehash = "deregister", false
				r.deregister(pool[r.rng.Intn(len(pool))])
			case n < 78:
				op, rehash = "push "+string(leaf), false
				r.push(leaf)
			case n < 84:
				op, rehash = "dump", false
				r.dump()
			case len(leaves) < 3 || (len(leaves) < 5 && n < 90):
				op = "split " + string(leaf)
				r.split(leaf)
			case n < 95:
				op = "merge " + string(leaf)
				r.merge(leaf)
			default:
				op = "takeover " + string(leaf)
				r.takeover(leaf)
			}
			if rehash {
				r.syncHeld()
			}
			r.check(step, op)
		}
		t.Logf("seed %d: %d updates alone, %d batched, %d splits, %d merges (%d handoffs), %d takeovers (%d restored, %d local wins), %d pushes, %d dumps",
			seed, r.single, r.batched, r.splits, r.merges, r.handoffs, r.takeovers, r.restored, r.localWins, r.pushes, r.dumps)
		total.single += r.single
		total.batched += r.batched
		total.takeovers += r.takeovers
		total.restored += r.restored
		total.localWins += r.localWins
		total.splits += r.splits
		total.merges += r.merges
		total.handoffs += r.handoffs
	}
	if total.single == 0 || total.batched == 0 || total.splits == 0 || total.merges == 0 || total.handoffs == 0 || total.takeovers == 0 || total.restored == 0 || total.localWins == 0 {
		t.Errorf("the seeds left a path unexercised: %d updates alone, %d batched, %d splits, %d merges, %d handoffs, %d takeovers, %d restored, %d local wins",
			total.single, total.batched, total.splits, total.merges, total.handoffs, total.takeovers, total.restored, total.localWins)
	}
}
