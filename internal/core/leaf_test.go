package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/platform"
	"agentloc/internal/raceflag"
	"agentloc/internal/stats"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// These tests pin "one slot per agent": what an IAgent keeps per served
// agent is its location-table slot and nothing else — the load count lives in
// the slot, the checkpoint dirty set is bounded, the rate window is fixed.

// ctxProbe, launched under an agent id, hands a test that agent's
// platform.Context, which nothing outside the platform can build.
type ctxProbe chan *platform.Context

func (p ctxProbe) HandleRequest(ctx *platform.Context, _ string, _ []byte) (any, error) {
	p <- ctx
	return nil, nil
}

// bareLeaf builds the IAgent "iagent-1" of a fresh state on a node of its
// own and returns it with its context, for tests that drive HandleRequest and
// HandleConcurrent by hand: no mailbox, no Run loop, nothing else talking to
// it. With sibling set the state has a second leaf, "iagent-2" — a hosted
// IAgent with a Run loop that never ticks — so "iagent-1" has a checkpoint
// buddy to push to.
func bareLeaf(tb testing.TB, cfg Config, sibling bool) (leaf, buddy *IAgentBehavior, ctx *platform.Context) {
	tb.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{})
	tb.Cleanup(func() { net.Close() })
	node, err := platform.NewNode(platform.Config{ID: "node-0", Link: net})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { node.Close() })

	tree := hashtree.New("iagent-1")
	locs := map[ids.AgentID]platform.NodeID{"iagent-1": "node-0"}
	if sibling {
		cands, err := tree.SplitCandidates("iagent-1", 1)
		if err != nil {
			tb.Fatal(err)
		}
		if tree, err = tree.ApplySplit(cands[0], "iagent-2"); err != nil {
			tb.Fatal(err)
		}
		locs["iagent-2"] = "node-0"
	}
	st := (&State{Ver: 1, Tree: tree, Locations: locs}).DTO()
	if sibling {
		idle := cfg
		idle.CheckInterval = time.Hour
		buddy = &IAgentBehavior{Cfg: idle, StateSnapshot: st}
		if err := node.Launch("iagent-2", buddy); err != nil {
			tb.Fatal(err)
		}
	}

	probe := make(ctxProbe, 1)
	if err := node.Launch("iagent-1", probe); err != nil {
		tb.Fatal(err)
	}
	if err := node.CallAgent(context.Background(), "node-0", "iagent-1", "probe", nil, nil); err != nil {
		tb.Fatal(err)
	}
	return &IAgentBehavior{Cfg: cfg, StateSnapshot: st}, buddy, <-probe
}

// ownedIDs returns n ids "<prefix>-<i>" the leaf is responsible for.
func ownedIDs(tb testing.TB, leaf *IAgentBehavior, prefix string, n int) []ids.AgentID {
	tb.Helper()
	st, err := FromDTO(leaf.StateSnapshot)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]ids.AgentID, 0, n)
	for i := 0; len(out) < n; i++ {
		id := ids.AgentID(fmt.Sprintf("%s-%07d", prefix, i))
		if owner, _, err := st.OwnerOf(id); err == nil && owner == "iagent-1" {
			out = append(out, id)
		}
	}
	return out
}

// serve drives one mailbox request by hand.
func serve(tb testing.TB, leaf *IAgentBehavior, ctx *platform.Context, kind string, req any) any {
	tb.Helper()
	payload, err := transport.EncodeV(req, wire.MsgVersion)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := leaf.HandleRequest(ctx, kind, payload)
	if err != nil {
		tb.Fatalf("%s: %v", kind, err)
	}
	return resp
}

// update registers or moves the agents, in batches of 64 through
// UpdateBatchReq as the bulk load does.
func update(tb testing.TB, leaf *IAgentBehavior, ctx *platform.Context, agents []ids.AgentID, node platform.NodeID) {
	tb.Helper()
	for len(agents) > 0 {
		n := min(64, len(agents))
		req := UpdateBatchReq{Updates: make([]UpdateReq, n)}
		for i, a := range agents[:n] {
			req.Updates[i] = UpdateReq{Agent: a, Node: node}
		}
		for i, ack := range serve(tb, leaf, ctx, KindUpdateBatch, req).(UpdateBatchResp).Acks {
			if ack.Status != StatusOK {
				tb.Fatalf("update of %s: %v", agents[i], ack.Status)
			}
		}
		agents = agents[n:]
	}
}

// locatePayload is a LocateReq as it arrives off the wire.
func locatePayload(tb testing.TB, agent ids.AgentID) []byte {
	tb.Helper()
	payload, err := transport.EncodeV(LocateReq{Agent: agent}, wire.MsgVersion)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

func loadOf(leaf *IAgentBehavior, agent ids.AgentID) (load uint32, found bool) {
	leaf.Table.RangeSlots(func(s loctable.Slot) bool {
		if s.Agent == agent {
			load, found = s.Load, true
		}
		return !found
	})
	return load, found
}

func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIAgentServeLocateCountsInSlot: a locate is served off the binary frame
// and charges the request to the agent's slot; any other form of the request
// is refused with a wire error and charges no slot.
func TestIAgentServeLocateCountsInSlot(t *testing.T) {
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	update(t, leaf, ctx, []ids.AgentID{"hot"}, "node-7")
	for i := 0; i < 3; i++ {
		resp, handled, err := leaf.HandleConcurrent(ctx, KindLocate, locatePayload(t, "hot"))
		if err != nil || !handled {
			t.Fatalf("HandleConcurrent: handled %v, err %v", handled, err)
		}
		if got := resp.(LocateResp); got.Status != StatusOK || got.Node != "node-7" {
			t.Fatalf("read-loop locate = %+v", got)
		}
	}
	gobPayload, err := transport.EncodeV(LocateReq{Agent: "hot"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, handled, err := leaf.HandleConcurrent(ctx, KindLocate, gobPayload); !handled || !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("gob locate = %+v, handled %v, err %v; want refused with wire.ErrCorrupt", resp, handled, err)
	}
	if load, _ := loadOf(leaf, "hot"); load != 4 { // the update and three locates
		t.Errorf("slot counted %d requests, want 4", load)
	}
	if _, _, err := leaf.HandleConcurrent(ctx, KindLocate, locatePayload(t, "hot")[:3]); err == nil {
		t.Error("a truncated binary locate was served")
	}
}

// TestIAgentServeLocateKeyAllocs: a locate served off the frame allocates
// nothing for its key — what is left is the boxed LocateResp.
func TestIAgentServeLocateKeyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	agents := ownedIDs(t, leaf, "a", 256)
	update(t, leaf, ctx, agents, "node-7")
	payload := locatePayload(t, agents[17])
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := leaf.HandleConcurrent(ctx, KindLocate, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a served locate allocates %.1f times, want ≤ 1 (the response)", allocs)
	}
}

// TestHandoffLoadIsOneAdd: a handed-off agent's load is restored with one
// add, not one lock cycle per request it ever drew, and saturates.
func TestHandoffLoadIsOneAdd(t *testing.T) {
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	req := HandoffReq{
		Entries: map[ids.AgentID]platform.NodeID{"adoptee": "node-3", "quiet": "node-3"},
		Load:    map[ids.AgentID]uint64{"adoptee": 1 << 31},
	}
	start := time.Now()
	if ack := serve(t, leaf, ctx, KindHandoff, req).(Ack); ack.Status != StatusOK {
		t.Fatalf("handoff: %v", ack.Status)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("handoff carrying a load of 2^31 took %v", took)
	}
	if load, found := loadOf(leaf, "adoptee"); !found || load != 1<<31 {
		t.Errorf("adoptee arrived with load %d (found %v), want 2^31", load, found)
	}
	if load, found := loadOf(leaf, "quiet"); !found || load != 0 {
		t.Errorf("quiet arrived with load %d (found %v), want 0", load, found)
	}
	serve(t, leaf, ctx, KindHandoff, req) // a retried handoff adds again
	if load, _ := loadOf(leaf, "adoptee"); load != loctable.MaxLoad {
		t.Errorf("load after a second 2^31 = %d, want saturated", load)
	}
}

// TestUnknownLocatesCostNothing: locating ids that were never registered
// leaves no trace — the table, and the heap, stay where they were.
func TestUnknownLocatesCostNothing(t *testing.T) {
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	update(t, leaf, ctx, ownedIDs(t, leaf, "known", 1000), "node-1")
	payloads := make([][]byte, 100_000)
	for i := range payloads {
		payloads[i] = locatePayload(t, ids.AgentID(fmt.Sprintf("nobody-%d", i)))
	}
	entries, before := leaf.Table.Len(), retainedHeap()
	for _, p := range payloads {
		resp, _, err := leaf.HandleConcurrent(ctx, KindLocate, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(LocateResp).Status; got != StatusUnknownAgent {
			t.Fatalf("unknown id answered %v", got)
		}
	}
	after := retainedHeap()
	runtime.KeepAlive(payloads)
	if leaf.Table.Len() != entries {
		t.Errorf("table grew from %d to %d entries", entries, leaf.Table.Len())
	}
	if after > before+64<<10 {
		t.Errorf("100 000 misses retained %d bytes", after-before)
	}
	if leaf.est.Total() < 100_000 {
		t.Errorf("rate estimator saw %d requests; misses still count towards the rate", leaf.est.Total())
	}
}

// TestIAgentHeapPerAgentBudget: what an agent costs a leaf, measured — 2^17
// agents registered through UpdateBatchReq, crash tolerance off and on
// (≈ 215 B/agent before the counters moved into the slot).
func TestIAgentHeapPerAgentBudget(t *testing.T) {
	const agents = 1 << 17
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"failover off", quietConfig()}, {"failover on", failoverConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			leaf, _, ctx := bareLeaf(t, tc.cfg, false)
			update(t, leaf, ctx, []ids.AgentID{"first"}, "node-0") // runtime built before the baseline
			before := retainedHeap()
			for first := 0; first < agents; first += 4096 {
				batch := make([]ids.AgentID, 4096)
				for i := range batch {
					batch[i] = ids.AgentID(fmt.Sprintf("a-%07d", first+i))
				}
				update(t, leaf, ctx, batch, platform.NodeID(fmt.Sprintf("node-%d", first%3)))
			}
			perAgent := float64(retainedHeap()-before) / agents
			runtime.KeepAlive(leaf)
			t.Logf("%.1f B/agent retained", perAgent)
			if perAgent > 130 {
				t.Errorf("an agent costs its leaf %.1f B, budget 130", perAgent)
			}
			if leaf.Table.Len() != agents+1 {
				t.Errorf("table holds %d entries, want %d", leaf.Table.Len(), agents+1)
			}
		})
	}
	// What an agent costs the buddy holding its leaf's checkpoint: a slot and
	// an id of its own (≈ 97 B as a map entry).
	t.Run("held copy", func(t *testing.T) {
		leaf, buddy, ctx := fullPushLeaf(t, agents)
		before := retainedHeap()
		fullPush(t, leaf, buddy, ctx)
		perAgent := float64(retainedHeap()-before) / agents
		runtime.KeepAlive(leaf)
		runtime.KeepAlive(buddy)
		t.Logf("%.1f B/held agent retained", perAgent)
		if perAgent > 90 {
			t.Errorf("a held agent costs the buddy %.1f B, budget 90", perAgent)
		}
	})
}

// TestCheckpointDirtySetOffWhenFailoverOff: with nothing to drain it, the
// dirty set is never filled.
func TestCheckpointDirtySetOffWhenFailoverOff(t *testing.T) {
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	agents := ownedIDs(t, leaf, "a", 10_000)
	update(t, leaf, ctx, agents, "node-1")
	serve(t, leaf, ctx, KindDeregister, DeregisterReq{Agent: agents[0]})
	if len(leaf.ckDirty) != 0 || len(leaf.ckRemoved) != 0 {
		t.Errorf("failover off, yet %d dirty and %d removed entries are kept", len(leaf.ckDirty), len(leaf.ckRemoved))
	}
}

// heldCopy reads what the buddy holds for iagent-1.
func heldCopy(buddy *IAgentBehavior) (held struct {
	Seq     uint64
	Entries map[ids.AgentID]platform.NodeID
}) {
	buddy.mu.Lock()
	defer buddy.mu.Unlock()
	if ck, ok := buddy.Checkpoints["iagent-1"]; ok {
		held.Seq, held.Entries = ck.Seq, ck.Entries.Snapshot()
	}
	return held
}

// TestCheckpointDeltaCarriesWhatFollowedTheSnapshot: nothing is noted while
// a full push is owed; after it lands, the first delta is exactly the
// changes made since.
func TestCheckpointDeltaCarriesWhatFollowedTheSnapshot(t *testing.T) {
	leaf, buddy, ctx := bareLeaf(t, failoverConfig(), true)
	agents := ownedIDs(t, leaf, "a", 120)
	update(t, leaf, ctx, agents[:100], "node-1")
	if len(leaf.ckDirty) != 0 {
		t.Fatalf("%d entries noted while the full snapshot that carries them is still owed", len(leaf.ckDirty))
	}
	leaf.pushCheckpoint(ctx)
	if held := heldCopy(buddy); held.Seq != 1 || len(held.Entries) != 100 {
		t.Fatalf("after the full push the buddy holds seq %d, %d entries; want 1, 100", held.Seq, len(held.Entries))
	}

	update(t, leaf, ctx, agents[95:110], "node-2") // 5 moves, 10 arrivals
	serve(t, leaf, ctx, KindDeregister, DeregisterReq{Agent: agents[0]})
	serve(t, leaf, ctx, KindDeregister, DeregisterReq{Agent: agents[109]})
	wantDirty := make(map[ids.AgentID]bool)
	for _, a := range agents[95:109] {
		wantDirty[a] = true
	}
	wantRemoved := map[ids.AgentID]bool{agents[0]: true, agents[109]: true}
	if !reflect.DeepEqual(leaf.ckDirty, wantDirty) || !reflect.DeepEqual(leaf.ckRemoved, wantRemoved) {
		t.Fatalf("delta holds dirty %v removed %v;\nwant %v and %v", leaf.ckDirty, leaf.ckRemoved, wantDirty, wantRemoved)
	}
	leaf.pushCheckpoint(ctx)
	held := heldCopy(buddy)
	if held.Seq != 2 || !reflect.DeepEqual(held.Entries, leaf.Table.Snapshot()) {
		t.Errorf("after the delta the buddy holds seq %d and %d entries, the table %d", held.Seq, len(held.Entries), leaf.Table.Len())
	}
	if len(leaf.ckDirty)+len(leaf.ckRemoved) != 0 {
		t.Errorf("a delivered delta left %d dirty, %d removed", len(leaf.ckDirty), len(leaf.ckRemoved))
	}

	// A rehash re-arms the full push and drops the delta it supersedes.
	update(t, leaf, ctx, agents[110:], "node-2")
	leaf.mu.Lock()
	leaf.armFullCheckpoint()
	leaf.mu.Unlock()
	if len(leaf.ckDirty) != 0 {
		t.Errorf("re-arming the full push kept %d dirty entries", len(leaf.ckDirty))
	}
}

// TestCheckpointUpdateRacingTheSnapshot: an update that lands while a full
// snapshot is being cut is in the snapshot or in the first delta after it.
func TestCheckpointUpdateRacingTheSnapshot(t *testing.T) {
	leaf, buddy, ctx := bareLeaf(t, failoverConfig(), true)
	agents := ownedIDs(t, leaf, "a", 6000)
	update(t, leaf, ctx, agents[:2000], "node-1")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the mailbox's part
		defer wg.Done()
		for i := 2000; i < len(agents); i += 8 {
			update(t, leaf, ctx, agents[i:i+8], "node-2")
		}
	}()
	for i := 0; i < 20; i++ { // the Run loop's part, a rehash re-arming now and then
		if i%5 == 0 {
			leaf.mu.Lock()
			leaf.armFullCheckpoint()
			leaf.mu.Unlock()
		}
		leaf.pushCheckpoint(ctx)
	}
	wg.Wait()
	leaf.pushCheckpoint(ctx)
	if held := heldCopy(buddy); !reflect.DeepEqual(held.Entries, leaf.Table.Snapshot()) {
		t.Errorf("the buddy holds %d entries, the table %d: an update fell between snapshot and delta", len(held.Entries), leaf.Table.Len())
	}
}

// TestLoadReportMatchesMapBuiltReport: the split statistics ranged off the
// table are the ones the per-agent map and stats.GroupLoads used to give, to
// the last bit of every candidate's fraction, so chooseSplit picks as before.
func TestLoadReportMatchesMapBuiltReport(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	table := loctable.New()
	account := make(map[ids.AgentID]uint64) // the map a per-agent account would hold
	for i := 0; i < 4096; i++ {
		id := ids.AgentID(fmt.Sprintf("skew-%d", i))
		load := uint64(rng.Intn(4)) // a quarter of the agents drew nothing
		if i%64 == 0 {
			load = uint64(1000 + rng.Intn(100_000)) // and a few are hot
		}
		table.PutHashed(id, id.Hash64(), "node-0", load)
		if load > 0 {
			account[id] = load
		}
	}
	cands, err := hashtree.New("A").SplitCandidates("A", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{0, 1, 4, 8, 64, 70} {
		old := RequestSplitReq{PerAgent: account}
		if bits > 0 {
			old = RequestSplitReq{PerGroup: stats.GroupLoads(account, bits)}
		}
		var ranged RequestSplitReq
		ranged.PerAgent, ranged.PerGroup = loadReport(table, bits)
		if !reflect.DeepEqual(old, ranged) {
			t.Fatalf("bits %d: the ranged report differs from the map-built one", bits)
		}
		oldEval, newEval := splitEvaluator(old), splitEvaluator(ranged)
		for _, c := range cands {
			of, ook := oldEval(c.BitPos, c.NewOnBit)
			nf, nok := newEval(c.BitPos, c.NewOnBit)
			if of != nf || ook != nok {
				t.Errorf("bits %d, candidate %v: fraction %v,%v from the map, %v,%v from the range", bits, c, of, ook, nf, nok)
			}
		}
		oc, _ := chooseSplit(cands, oldEval, 0.15)
		nc, _ := chooseSplit(cands, newEval, 0.15)
		if !reflect.DeepEqual(oc, nc) {
			t.Errorf("bits %d: chose %v from the map, %v from the range", bits, oc, nc)
		}
	}
}

// TestRelocatedIAgentKeepsLoads: an IAgent's exported state is what migrates
// (placement.go); the per-agent loads ride in the table's gob form, so the
// relocated IAgent's split reports are as informed as before the move.
func TestRelocatedIAgentKeepsLoads(t *testing.T) {
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	agents := ownedIDs(t, leaf, "a", 200)
	update(t, leaf, ctx, agents, "node-1")
	for i, a := range agents {
		for j := 0; j < i%5; j++ {
			leaf.locate(ctx, a)
		}
	}
	var moved bytes.Buffer
	if err := gob.NewEncoder(&moved).Encode(leaf); err != nil {
		t.Fatal(err)
	}
	var arrived IAgentBehavior
	if err := gob.NewDecoder(&moved).Decode(&arrived); err != nil {
		t.Fatal(err)
	}
	before, _ := loadReport(leaf.Table, 0)
	after, _ := loadReport(arrived.Table, 0)
	if len(before) != len(agents) || !reflect.DeepEqual(before, after) {
		t.Errorf("%d agents' loads left, %d arrived, equal: %v", len(before), len(after), reflect.DeepEqual(before, after))
	}
}
