package loctable

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// tagTwins returns two distinct ids whose hashes agree in their low 34 bits,
// found by brute force: in any table of up to 4 stripes they sit in the same
// stripe under the same tag, so only their bytes tell them apart.
var tagTwins = sync.OnceValues(func() (ids.AgentID, ids.AgentID) {
	const low = 1<<34 - 1
	seen := make(map[uint64]ids.AgentID)
	for i := 0; ; i++ {
		id := ids.AgentID(fmt.Sprintf("twin-%d", i))
		if twin, ok := seen[id.Hash64()&low]; ok {
			return twin, id
		}
		seen[id.Hash64()&low] = id
	}
})

// edgeIDs are ids that test the key arena's edges: the lengths either side of
// each uvarint prefix width (0, 1, 127, 128 and 300 bytes) and the two tag
// twins.
func edgeIDs() []ids.AgentID {
	a, b := tagTwins()
	return []ids.AgentID{"", "x", ids.AgentID(strings.Repeat("p", 127)), ids.AgentID(strings.Repeat("q", 128)),
		ids.AgentID(strings.Repeat("r", 300)), a, b}
}

// checkHashes fails on a slot RangeSlots yields with a hash other than its
// id's Hash64.
func checkHashes(t *testing.T, tbl *Table) {
	t.Helper()
	tbl.RangeSlots(func(s Slot) bool {
		if s.Hash != s.Agent.Hash64() {
			t.Fatalf("RangeSlots yields %q with hash %#x, Hash64 is %#x", s.Agent, s.Hash, s.Agent.Hash64())
		}
		return true
	})
}

// TestDenseModelEquivalence drives the open-addressed stripes through a
// long randomized put/replace/delete schedule against a plain map model;
// any probe-chain or backward-shift bug surfaces as a divergence. The edge
// ids ride along, so ids that cross the length-prefix widths and two that
// share a tag go through the same puts, deletes, resizes and compactions.
func TestDenseModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewWithStripes(4) // few stripes → long probe chains sooner
	model := make(map[ids.AgentID]platform.NodeID)
	edge := edgeIDs()
	idFor := func(i int) ids.AgentID {
		if i < len(edge) {
			return edge[i]
		}
		return ids.AgentID(fmt.Sprintf("m-%d", i))
	}
	nodes := []platform.NodeID{"n0", "n1", "n2"}

	for step := 0; step < 50000; step++ {
		id := idFor(rng.Intn(2000))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // put / replace
			node := nodes[rng.Intn(len(nodes))]
			tbl.Put(id, node)
			model[id] = node
		case 5, 6, 7: // delete
			_, want := model[id]
			if got := tbl.Delete(id); got != want {
				t.Fatalf("step %d: Delete(%s) = %v, want %v", step, id, got, want)
			}
			delete(model, id)
		default: // get
			wantNode, want := model[id]
			gotNode, got := tbl.Get(id)
			if got != want || gotNode != wantNode {
				t.Fatalf("step %d: Get(%s) = %q,%v; want %q,%v", step, id, gotNode, got, wantNode, want)
			}
		}
		if tbl.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, tbl.Len(), len(model))
		}
		if step%5000 == 4999 {
			checkHashes(t, tbl)
		}
	}
	// Final full sweep both directions.
	for id, node := range model {
		if got, ok := tbl.Get(id); !ok || got != node {
			t.Fatalf("final Get(%s) = %q,%v; want %q", id, got, ok, node)
		}
	}
	snap := tbl.Snapshot()
	if len(snap) != len(model) {
		t.Fatalf("snapshot %d entries, model %d", len(snap), len(model))
	}
	checkHashes(t, tbl)
}

// TestTagTwins keeps two ids that share a stripe and a tag apart through
// puts, deletes, a resize and an arena compaction.
func TestTagTwins(t *testing.T) {
	a, b := tagTwins()
	tbl := NewWithStripes(4)
	sa, tagA := tbl.stripeFor(a.Hash64())
	sb, tagB := tbl.stripeFor(b.Hash64())
	if sa != sb || tagA != tagB || a == b {
		t.Fatalf("%q and %q are not tag twins: tags %#x and %#x", a, b, tagA, tagB)
	}
	check := func(when string, want map[ids.AgentID]platform.NodeID) {
		t.Helper()
		for _, id := range []ids.AgentID{a, b} {
			node, ok := tbl.Get(id)
			if w, held := want[id]; ok != held || node != w {
				t.Fatalf("%s: Get(%s) = %q,%v; want %q,%v", when, id, node, ok, w, held)
			}
		}
		checkHashes(t, tbl)
	}
	tbl.Put(a, "na")
	check("a put", map[ids.AgentID]platform.NodeID{a: "na"})
	tbl.Put(b, "nb")
	check("both put", map[ids.AgentID]platform.NodeID{a: "na", b: "nb"})
	tbl.Put(a, "nc")
	check("a replaced", map[ids.AgentID]platform.NodeID{a: "nc", b: "nb"})
	if !tbl.Delete(a) {
		t.Fatal("Delete(a) missed")
	}
	check("a deleted", map[ids.AgentID]platform.NodeID{b: "nb"})
	tbl.Put(a, "na")

	// Grow the twins' stripe through resizes, then delete three quarters of
	// the filler, which takes the arena's dead bytes past half and compacts it.
	slots := len(sa.entries)
	filler := make([]ids.AgentID, 0, 256)
	for i := 0; len(filler) < cap(filler); i++ {
		if id := ids.AgentID(fmt.Sprintf("fill-%d", i)); id.Hash64()&tbl.mask == a.Hash64()&tbl.mask {
			tbl.Put(id, "nf")
			filler = append(filler, id)
		}
	}
	if len(sa.entries) <= slots {
		t.Fatalf("the stripe did not grow past %d slots", slots)
	}
	check("after the resizes", map[ids.AgentID]platform.NodeID{a: "na", b: "nb"})
	arena := &sa.keys[0]
	for _, id := range filler[:3*len(filler)/4] {
		tbl.Delete(id)
	}
	if &sa.keys[0] == arena {
		t.Fatal("deleting over half the arena did not compact it")
	}
	check("after the compaction", map[ids.AgentID]platform.NodeID{a: "na", b: "nb"})
	tbl.Delete(b)
	check("b deleted", map[ids.AgentID]platform.NodeID{a: "na"})
}

// TestTableBytesTracksFootprint: the byte counter equals the slot arrays and
// key arenas a walk finds, through growth, compaction and shrinkage.
func TestTableBytesTracksFootprint(t *testing.T) {
	tbl := NewWithStripes(4)
	walk := func() int64 {
		var n int64
		for i := range tbl.stripes {
			n += tbl.stripes[i].footprint()
		}
		return n
	}
	for i := 0; i < 4096; i++ {
		tbl.Put(ids.AgentID(fmt.Sprintf("b-%d", i)), "n")
	}
	if got, want := tbl.Bytes(), walk(); got != want || got < 4096*(entrySize+7) {
		t.Fatalf("after 4096 puts Bytes = %d, the stripes hold %d", got, want)
	}
	for i := 0; i < 4000; i++ {
		tbl.Delete(ids.AgentID(fmt.Sprintf("b-%d", i)))
	}
	if got, want := tbl.Bytes(), walk(); got != want {
		t.Fatalf("after the deletes Bytes = %d, the stripes hold %d", got, want)
	}
}

// TestDenseShrinkReleasesCapacity pins the shrink path: filling a stripe
// and deleting nearly everything must hand capacity back.
func TestDenseShrinkReleasesCapacity(t *testing.T) {
	tbl := NewWithStripes(1)
	for i := 0; i < 4096; i++ {
		tbl.Put(ids.AgentID(fmt.Sprintf("s-%d", i)), "n")
	}
	grown := len(tbl.stripes[0].entries)
	if grown < 4096*loadDen/loadNum/2 {
		t.Fatalf("stripe capacity %d suspiciously small for 4096 entries", grown)
	}
	for i := 0; i < 4090; i++ {
		if !tbl.Delete(ids.AgentID(fmt.Sprintf("s-%d", i))) {
			t.Fatalf("Delete(s-%d) missed", i)
		}
	}
	if shrunk := len(tbl.stripes[0].entries); shrunk >= grown {
		t.Errorf("capacity %d did not shrink from %d after mass delete", shrunk, grown)
	}
	for i := 4090; i < 4096; i++ {
		if node, ok := tbl.Get(ids.AgentID(fmt.Sprintf("s-%d", i))); !ok || node != "n" {
			t.Fatalf("survivor s-%d lost after shrink: %q, %v", i, node, ok)
		}
	}
}

// TestGetBytesMatchesGet pins the byte-key fast path (GetCountedBytes)
// against the string path, including its zero-allocation contract on hits.
func TestGetBytesMatchesGet(t *testing.T) {
	tbl := New()
	for i := 0; i < 300; i++ {
		tbl.Put(ids.AgentID(fmt.Sprintf("b-%d", i)), platform.NodeID(fmt.Sprintf("n-%d", i%5)))
	}
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("b-%d", i))
		wantNode, want := tbl.Get(ids.AgentID(key))
		gotNode, got := tbl.GetCountedBytes(key, ids.HashBytes(key))
		if got != want || gotNode != wantNode {
			t.Fatalf("GetCountedBytes(%s) = %q,%v; Get = %q,%v", key, gotNode, got, wantNode, want)
		}
	}
	absent := []byte("b-absent")
	if _, ok := tbl.GetCountedBytes(absent, ids.HashBytes(absent)); ok {
		t.Fatal("GetCountedBytes found an absent key")
	}
	key := []byte("b-17")
	hash := ids.HashBytes(key)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := tbl.GetCountedBytes(key, hash); !ok {
			t.Fatal("lost b-17")
		}
	}); allocs != 0 {
		t.Errorf("GetCountedBytes allocates %v per hit, want 0", allocs)
	}
}

// TestNodeInterning pins that entries for the same node share one backing
// string: the million-agent memory contract.
func TestNodeInterning(t *testing.T) {
	tbl := New()
	for i := 0; i < 100; i++ {
		// Distinct string allocations with equal content.
		tbl.Put(ids.AgentID(fmt.Sprintf("i-%d", i)), platform.NodeID("node-"+fmt.Sprint(7)))
	}
	if len(tbl.nodes) != 1 {
		t.Fatalf("intern map has %d node ids, want 1", len(tbl.nodes))
	}
	// Replacing an entry with an equal-content node must not grow the map.
	tbl.Put("i-0", platform.NodeID("node-"+fmt.Sprint(7)))
	if len(tbl.nodes) != 1 {
		t.Fatalf("replace grew intern map to %d", len(tbl.nodes))
	}
}

// FuzzDenseOps feeds an arbitrary op tape into the table and the model
// map; every byte pair is one operation on a small key space, so the fuzzer
// explores dense collision/shift schedules quickly. A key byte from 0xC0 up
// names one of the edge ids. Every id a lookup hands
// out is held to the end of the tape, across whatever resizes and arena
// compactions follow, and must still read the id it was.
func FuzzDenseOps(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x81, 0x12, 0x83})
	f.Add([]byte{0xFF, 0x00, 0x42, 0x42, 0x42, 0x01, 0x02, 0x03})
	edge := edgeIDs()
	f.Fuzz(func(t *testing.T, tape []byte) {
		tbl := NewWithStripes(2)
		model := make(map[ids.AgentID]platform.NodeID)
		var views, wants []ids.AgentID
		for i := 0; i+1 < len(tape); i += 2 {
			op, k := tape[i], tape[i+1]
			id := ids.AgentID(fmt.Sprintf("f-%d", k%64))
			if k >= 0xC0 {
				id = edge[int(k-0xC0)%len(edge)]
			}
			switch op % 3 {
			case 0:
				node := platform.NodeID(fmt.Sprintf("n-%d", op%4))
				tbl.Put(id, node)
				model[id] = node
			case 1:
				_, want := model[id]
				if got := tbl.Delete(id); got != want {
					t.Fatalf("Delete(%s) = %v, want %v", id, got, want)
				}
				delete(model, id)
			case 2:
				wantNode, want := model[id]
				gotNode, got := tbl.Get(id)
				if got != want || gotNode != wantNode {
					t.Fatalf("Get(%s) = %q,%v; want %q,%v", id, gotNode, got, wantNode, want)
				}
				if s, ok := tbl.GetSlot(id, id.Hash64()); ok {
					views, wants = append(views, s.Agent), append(wants, id)
				}
			}
		}
		if tbl.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", tbl.Len(), len(model))
		}
		for i, v := range views {
			if v != wants[i] {
				t.Fatalf("an id handed out as %q now reads %q", wants[i], v)
			}
		}
		for id, node := range model {
			if got, ok := tbl.Get(id); !ok || got != node {
				t.Fatalf("final Get(%s) = %q,%v; want %q", id, got, ok, node)
			}
		}
		checkHashes(t, tbl)
	})
}

// TestArenaOverflowPanics: an id that would take a stripe's key arena past
// what a slot's offset can name is refused loudly instead of wrapping, and
// the table stays whole and usable.
func TestArenaOverflowPanics(t *testing.T) {
	defer func(limit uint64) { maxArena = limit }(maxArena)
	maxArena = 72
	tbl := NewWithStripes(1)
	for i := 0; i < 8; i++ {
		tbl.Put(ids.AgentID(fmt.Sprintf("id-%04d", i)), "n") // 64 of the 72 bytes: 7 per id, 1 per length prefix
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a Put past the arena's limit did not panic")
			}
		}()
		tbl.Put("one-too-many", "n")
	}()
	if tbl.Len() != 8 || tbl.InternedNodes() != 1 {
		t.Fatalf("after the refused Put: %d entries, %d interned nodes; want 8 and 1", tbl.Len(), tbl.InternedNodes())
	}
	tbl.Delete("id-0000")
	tbl.Put("id-0008", "m")
	if node, ok := tbl.Get("id-0008"); !ok || node != "m" {
		t.Fatalf("Get(id-0008) = %q, %v after the refused Put", node, ok)
	}
}

// BenchmarkTableServedLookup is a served locate's table probe at a leaf's
// scale: 2^20 ids, each decoded into an allocation of its own and put in
// shuffled order, then looked up in another shuffled order with id bytes kept
// apart from the table — as a request frame holds them — by the counted,
// byte-keyed lookup a served locate makes, hash included. Every hit compares
// the id's bytes, which a probe that looks up the very strings it put can
// skip on pointer-equal strings.
func BenchmarkTableServedLookup(b *testing.B) {
	const agents = 1 << 20
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, agents)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "a-%07d", i)
	}
	nodes := []platform.NodeID{"node-0", "node-1", "node-2"}
	tbl := New()
	for _, i := range rng.Perm(agents) {
		tbl.Put(ids.AgentID(keys[i]), nodes[i%len(nodes)])
	}
	order := rng.Perm(agents)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[order[i%agents]]
		if _, ok := tbl.GetCountedBytes(key, ids.HashBytes(key)); !ok {
			b.Fatalf("%s missing", key)
		}
	}
}
