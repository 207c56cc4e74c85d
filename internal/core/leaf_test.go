package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
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
	"agentloc/internal/snapshot"
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
	leaf.leaf.table.RangeSlots(func(s loctable.Slot) bool {
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
		if got := resp.(*LocateResp); got.Status != StatusOK || got.Node != "node-7" {
			t.Fatalf("read-loop locate = %+v", got)
		}
	}
	var gobPayload bytes.Buffer
	if err := gob.NewEncoder(&gobPayload).Encode(LocateReq{Agent: "hot"}); err != nil {
		t.Fatal(err)
	}
	if err := transport.Decode(gobPayload.Bytes(), &LocateReq{}); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("Decode of a gob locate = %v, want wire.ErrCorrupt", err)
	}
	if resp, handled, err := leaf.HandleConcurrent(ctx, KindLocate, gobPayload.Bytes()); !handled || !errors.Is(err, wire.ErrCorrupt) {
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
// nothing — not for its key, and not for its answer, one of the leaf's
// prebuilt answers (1 while each answer was a LocateResp boxed per request).
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
	if allocs > 0 {
		t.Errorf("a served locate allocates %.1f times, want 0", allocs)
	}
}

// TestHandoffLoadIsOneAdd: a handed-off agent's load is restored with one
// add, not one lock cycle per request it ever drew, and saturates.
func TestHandoffLoadIsOneAdd(t *testing.T) {
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	req := HandoffReq{Records: stream(
		snapshot.Record{Op: snapshot.OpPut, Agent: "adoptee", Node: "node-3", Load: 1 << 31},
		snapshot.Record{Op: snapshot.OpPut, Agent: "quiet", Node: "node-3"},
	)}
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

// TestHandoffRefusesWhatNoLeafHandsOff: a handoff whose stream holds a record
// no leaf hands off — a delete, a put without an address, a load past a
// slot's count, an IAgent's stamp — or ends in a stray byte is refused as
// corrupt, and the leaf keeps nothing of it: neither the good record before
// the bad one nor the mail.
func TestHandoffRefusesWhatNoLeafHandsOff(t *testing.T) {
	for name, bad := range map[string][]byte{
		"delete":           snapshot.AppendStream(nil, snapshot.Record{Op: snapshot.OpDelete, Agent: "x"}),
		"no address":       snapshot.AppendStream(nil, snapshot.Record{Op: snapshot.OpPut, Agent: "x"}),
		"load past a slot": snapshot.AppendStream(nil, snapshot.Record{Op: snapshot.OpPut, Agent: "x", Node: "node-1", Load: math.MaxUint32 + 1}),
		"stamped":          snapshot.AppendStream(nil, snapshot.Record{Op: snapshot.OpPut, IAgent: "iagent-9", Agent: "x", Node: "node-1"}),
		"trailing byte":    {1},
	} {
		leaf, _, ctx := bareLeaf(t, quietConfig(), false)
		req := HandoffReq{Records: stream(snapshot.Record{Op: snapshot.OpPut, Agent: "good", Node: "node-1", Load: 3})}
		req.Records = append(req.Records, bad...)
		req.Pending = map[ids.AgentID][]Deposited{"good": {{From: "sender", Kind: "note", Payload: []byte("hi")}}}
		payload, err := transport.EncodeV(req, wire.MsgVersion)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := leaf.HandleRequest(ctx, KindHandoff, payload); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: handoff answered %v, want wire.ErrCorrupt", name, err)
		}
		if n := leaf.leaf.table.Len(); n != 0 || len(leaf.Pending) != 0 {
			t.Errorf("%s: the refused handoff left %d agents and mail for %d", name, n, len(leaf.Pending))
		}
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
	entries, before := leaf.leaf.table.Len(), retainedHeap()
	for _, p := range payloads {
		resp, _, err := leaf.HandleConcurrent(ctx, KindLocate, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(*LocateResp).Status; got != StatusUnknownAgent {
			t.Fatalf("unknown id answered %v", got)
		}
	}
	after := retainedHeap()
	runtime.KeepAlive(payloads)
	if leaf.leaf.table.Len() != entries {
		t.Errorf("table grew from %d to %d entries", entries, leaf.leaf.table.Len())
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
// (≈ 215 B/agent before the counters moved into the slot, ≈ 80 B before the
// ids moved into the stripes' key arenas, ≈ 58.5 B with 24-byte slots;
// ≈ 43.5 B now).
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
			if perAgent > 52 {
				t.Errorf("an agent costs its leaf %.1f B, budget 52", perAgent)
			}
			if leaf.leaf.table.Len() != agents+1 {
				t.Errorf("table holds %d entries, want %d", leaf.leaf.table.Len(), agents+1)
			}
		})
	}
	// What an agent costs the buddy holding its leaf's checkpoint: its record
	// in the held log, length prefix included (≈ 97 B as a map entry, ≈ 81 B
	// with the id a string of its own, ≈ 59.7 B with 24-byte slots, ≈ 44.7 B
	// while the copy was a table of its own).
	t.Run("held copy", func(t *testing.T) {
		leaf, buddy, ctx := fullPushLeaf(t, agents)
		before := retainedHeap()
		fullPush(t, leaf, buddy, ctx)
		perAgent := float64(retainedHeap()-before) / agents
		runtime.KeepAlive(leaf)
		runtime.KeepAlive(buddy)
		t.Logf("%.1f B/held agent retained", perAgent)
		if perAgent > 24 {
			t.Errorf("a held agent costs the buddy %.1f B, budget 24", perAgent)
		}
	})
}

// TestCheckpointSuffixOffWhenFailoverOff: with nothing to drain it, the
// checkpoint suffix is never filled.
func TestCheckpointSuffixOffWhenFailoverOff(t *testing.T) {
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	agents := ownedIDs(t, leaf, "a", 10_000)
	update(t, leaf, ctx, agents, "node-1")
	serve(t, leaf, ctx, KindDeregister, DeregisterReq{Agent: agents[0]})
	if leaf.ckLen != 0 || len(leaf.ckSuffix) != 0 {
		t.Errorf("failover off, yet %d records (%d bytes) are kept", leaf.ckLen, len(leaf.ckSuffix))
	}
}

// heldCopy reads what the buddy holds for iagent-1, folded: the sequence
// number of the next record it expects, and each agent's resolved address.
func heldCopy(buddy *IAgentBehavior) (held struct {
	Seq     uint64
	Entries map[ids.AgentID]platform.NodeID
}) {
	buddy.mu.Lock()
	defer buddy.mu.Unlock()
	if ck, ok := buddy.checkpoints["iagent-1"]; ok {
		held.Seq, held.Entries = ck.Seq, map[ids.AgentID]platform.NodeID{}
		for a, v := range readLeaf(ck.Log.fold()) {
			held.Entries[a] = v.node
		}
	}
	return held
}

// suffixRecords decodes the leaf's checkpoint suffix.
func suffixRecords(tb testing.TB, leaf *IAgentBehavior) []snapshot.Record {
	tb.Helper()
	leaf.mu.Lock()
	defer leaf.mu.Unlock()
	var out []snapshot.Record
	for d := wire.NewDec(leaf.ckSuffix); d.Remaining() > 0; {
		data, err := d.Bytes(wire.MaxFrameLen)
		if err != nil {
			tb.Fatal(err)
		}
		rec, err := snapshot.DecodeRecord(data)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, rec)
	}
	if len(out) != leaf.ckLen {
		tb.Fatalf("the suffix holds %d records, counted %d", len(out), leaf.ckLen)
	}
	return out
}

// TestCheckpointDeltaCarriesWhatFollowedTheSnapshot: nothing joins the
// suffix while a full push is owed; after it lands, the first delta is
// exactly the records logged since, in order, and the buddy's fold is the
// table.
func TestCheckpointDeltaCarriesWhatFollowedTheSnapshot(t *testing.T) {
	leaf, buddy, ctx := bareLeaf(t, failoverConfig(), true)
	agents := ownedIDs(t, leaf, "a", 120)
	update(t, leaf, ctx, agents[:100], "node-1")
	if n := len(suffixRecords(t, leaf)); n != 0 {
		t.Fatalf("%d records logged to the suffix while the full snapshot that carries them is still owed", n)
	}
	leaf.pushCheckpoint(ctx)
	if held := heldCopy(buddy); held.Seq != 0 || len(held.Entries) != 100 {
		t.Fatalf("after the full push the buddy holds seq %d, %d entries; want 0, 100", held.Seq, len(held.Entries))
	}

	update(t, leaf, ctx, agents[95:110], "node-2") // 5 moves, 10 arrivals
	serve(t, leaf, ctx, KindDeregister, DeregisterReq{Agent: agents[0]})
	serve(t, leaf, ctx, KindDeregister, DeregisterReq{Agent: agents[109]})
	var want []snapshot.Record
	for _, a := range agents[95:110] {
		want = append(want, snapshot.Record{Op: snapshot.OpPut, Agent: string(a), Node: "node-2"})
	}
	for _, a := range []ids.AgentID{agents[0], agents[109]} {
		want = append(want, snapshot.Record{Op: snapshot.OpDelete, Agent: string(a)})
	}
	if got := suffixRecords(t, leaf); !reflect.DeepEqual(got, want) {
		t.Fatalf("the suffix holds %v;\nwant %v", got, want)
	}
	leaf.pushCheckpoint(ctx)
	held := heldCopy(buddy)
	if held.Seq != uint64(len(want)) || !reflect.DeepEqual(held.Entries, leaf.leaf.table.Snapshot()) {
		t.Errorf("after the delta the buddy holds seq %d and %d entries, the table %d", held.Seq, len(held.Entries), leaf.leaf.table.Len())
	}
	if n := len(suffixRecords(t, leaf)); n != 0 {
		t.Errorf("a delivered delta left %d records in the suffix", n)
	}

	// A rehash re-arms the full push and drops the suffix it supersedes.
	update(t, leaf, ctx, agents[110:], "node-2")
	leaf.mu.Lock()
	leaf.armFullCheckpoint()
	leaf.mu.Unlock()
	if n := len(suffixRecords(t, leaf)); n != 0 {
		t.Errorf("re-arming the full push kept %d records", n)
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
	if held := heldCopy(buddy); !reflect.DeepEqual(held.Entries, leaf.leaf.table.Snapshot()) {
		t.Errorf("the buddy holds %d entries, the table %d: an update fell between snapshot and delta", len(held.Entries), leaf.leaf.table.Len())
	}
}

// TestCheckpointDeltasDroppedAtRandom: a delta the buddy refuses puts its
// agents back in the touched set, so after deltas are dropped at random
// through moves, arrivals and deregisters, one push that lands brings the
// buddy's copy level with the table.
func TestCheckpointDeltasDroppedAtRandom(t *testing.T) {
	leaf, buddy, ctx := bareLeaf(t, failoverConfig(), true)
	agents := ownedIDs(t, leaf, "a", 400)
	update(t, leaf, ctx, agents[:200], "node-1")
	leaf.pushCheckpoint(ctx) // the full push
	// refuse makes the buddy a hash version ahead, so it turns deltas away.
	refuse := func(by uint64) {
		buddy.mu.Lock()
		st := *buddy.state.Load()
		st.Ver += by
		buddy.state.Store(&st)
		buddy.mu.Unlock()
	}
	rng := rand.New(rand.NewSource(5))
	dropped := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 10; i++ {
			a := agents[rng.Intn(len(agents))]
			if rng.Intn(4) == 0 {
				serve(t, leaf, ctx, KindDeregister, DeregisterReq{Agent: a})
			} else {
				update(t, leaf, ctx, []ids.AgentID{a}, platform.NodeID(fmt.Sprintf("node-%d", rng.Intn(3))))
			}
		}
		if rng.Intn(2) == 0 {
			refuse(1)
			leaf.pushCheckpoint(ctx)
			refuse(^uint64(0)) // and back
			dropped++
			continue
		}
		leaf.pushCheckpoint(ctx)
	}
	if dropped == 0 {
		t.Fatal("no delta was dropped")
	}
	leaf.pushCheckpoint(ctx)
	if held := heldCopy(buddy); !reflect.DeepEqual(held.Entries, leaf.leaf.table.Snapshot()) {
		t.Errorf("after %d dropped deltas the buddy holds %d entries, the table %d", dropped, len(held.Entries), leaf.leaf.table.Len())
	}
}

// mapSplitEvaluator is the reference a split report must match: from a
// per-agent map, the load of the agents whose rendered binary id has newOnBit
// at bitPos, over the total.
func mapSplitEvaluator(perAgent map[ids.AgentID]uint64) loadEvaluator {
	var total uint64
	for _, n := range perAgent {
		total += n
	}
	return func(bitPos int, newOnBit byte) (float64, bool) {
		if total == 0 {
			return 0.5, false
		}
		var moved uint64
		for agent, n := range perAgent {
			if agent.Binary().At(bitPos) == newOnBit {
				moved += n
			}
		}
		return float64(moved) / float64(total), true
	}
}

// TestLoadReportMatchesMapBuiltReport: the per-bit report ranged off a leaf's
// table — and a PerAgent map folded into one — gives every split candidate the
// fraction the per-agent map gave, to the last bit, so chooseSplit picks the
// same candidate. The leaves come from trees grown by random split/merge
// histories, so multi-bit labels and complex-split candidates are among them.
func TestLoadReportMatchesMapBuiltReport(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type agentLoad struct {
		id   ids.AgentID
		load uint64
	}
	pop := make([]agentLoad, 4096)
	for i := range pop {
		load := uint64(rng.Intn(4)) // a quarter of the agents drew nothing
		if i%64 == 0 {
			load = uint64(1000 + rng.Intn(100_000)) // and a few are hot
		}
		pop[i] = agentLoad{ids.AgentID(fmt.Sprintf("skew-%d", i)), load}
	}

	tree := hashtree.New("L0")
	complexCands := 0
	for step := 0; step < 80; step++ {
		leaves := tree.IAgents()
		leaf := leaves[rng.Intn(len(leaves))]

		table := loctable.New()
		account := make(map[ids.AgentID]uint64) // the map a leaf used to send
		for _, a := range pop {
			if owner, err := tree.LookupHash(a.id.Hash64()); err != nil || owner != leaf {
				continue
			}
			table.PutHashed(a.id, a.id.Hash64(), "node-0", a.load)
			if a.load > 0 {
				account[a.id] = a.load
			}
		}
		var vec RequestSplitReq
		vec.BitLoad, vec.Total = loadReport(table)
		cands, err := tree.SplitCandidates(leaf, maxSimpleBits)
		if err != nil {
			t.Fatal(err)
		}
		ref := mapSplitEvaluator(account)
		for name, eval := range map[string]loadEvaluator{
			"ranged vector":   splitEvaluator(vec),
			"folded PerAgent": splitEvaluator(RequestSplitReq{PerAgent: account}),
		} {
			for _, c := range cands {
				rf, rok := ref(c.BitPos, c.NewOnBit)
				f, ok := eval(c.BitPos, c.NewOnBit)
				if rf != f || rok != ok {
					t.Errorf("step %d, %s, candidate %v: fraction %v,%v from the map, %v,%v from the %s", step, leaf, c, rf, rok, f, ok, name)
				}
			}
			rc, rok := chooseSplit(cands, ref, splitEvenness)
			c, ok := chooseSplit(cands, eval, splitEvenness)
			if !reflect.DeepEqual(rc, c) || rok != ok {
				t.Errorf("step %d, %s: chose %v from the map, %v from the %s", step, leaf, rc, c, name)
			}
		}
		for _, c := range cands {
			if c.Kind == hashtree.SplitComplex {
				complexCands++
			}
		}

		if len(leaves) > 1 && rng.Intn(3) == 0 {
			if tree, _, err = tree.Merge(leaf); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if tree, err = tree.ApplySplit(cands[rng.Intn(len(cands))], fmt.Sprintf("L%d", step+1)); err != nil {
			t.Fatal(err)
		}
	}
	if complexCands == 0 {
		t.Error("no complex-split candidate was compared")
	}
}

// TestSplitReportIsFixedSize: the split request of a leaf holding 2^18 loaded
// agents is 64 counters and a total — under 1 KiB on the wire.
func TestSplitReportIsFixedSize(t *testing.T) {
	table := loctable.New()
	for i := 0; i < 1<<18; i++ {
		id := ids.AgentID(fmt.Sprintf("a-%07d", i))
		table.PutHashed(id, id.Hash64(), "node-0", uint64(1+i%7))
	}
	req := RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 1e6}
	req.BitLoad, req.Total = loadReport(table)
	payload, err := transport.Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("split request for %d agents: %d B", table.Len(), len(payload))
	if len(payload) > 1024 {
		t.Errorf("split request is %d B, budget 1 KiB", len(payload))
	}
}
