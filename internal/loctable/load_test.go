package loctable

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// TestSlotIs32Bytes pins the layout the per-agent memory budget rests on.
func TestSlotIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Errorf("slot is %d bytes, want 32", got)
	}
}

type modelSlot struct {
	node platform.NodeID
	load uint64
}

func (m *modelSlot) add(n uint64) { m.load = min(m.load+n, MaxLoad) }

// checkAgainstModel compares every slot the table yields, hash included,
// with the model.
func checkAgainstModel(t *testing.T, tbl *Table, model map[ids.AgentID]*modelSlot) {
	t.Helper()
	seen := 0
	tbl.RangeSlots(func(s Slot) bool {
		seen++
		want, ok := model[s.Agent]
		switch {
		case !ok:
			t.Errorf("table holds %s, model does not", s.Agent)
		case s.Node != want.node || uint64(s.Load) != want.load:
			t.Errorf("%s = %s load %d, model %s load %d", s.Agent, s.Node, s.Load, want.node, want.load)
		case s.Hash != s.Agent.Hash64():
			t.Errorf("%s yielded hash %#x, Hash64 is %#x", s.Agent, s.Hash, s.Agent.Hash64())
		}
		return true
	})
	if seen != len(model) || tbl.Len() != len(model) {
		t.Errorf("table yields %d slots, Len %d, model %d", seen, tbl.Len(), len(model))
	}
}

// TestLoadModelEquivalence drives puts, counted lookups (by string and by
// bytes), AddLoad and deletes against a map model, over a population that
// swells and collapses so stripes grow, shrink and backward-shift with
// counters in them.
func TestLoadModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tbl := NewWithStripes(4)
	model := make(map[ids.AgentID]*modelSlot)
	nodes := []platform.NodeID{"n0", "n1", "n2"}
	peak := 0
	for step := 0; step < 60000; step++ {
		id := ids.AgentID(fmt.Sprintf("m-%d", rng.Intn(4096)))
		hash := id.Hash64()
		m, held := model[id]
		op := rng.Intn(10)
		// Every other 10 000 steps deletes win, and the population collapses.
		if collapsing := (step/10000)%2 == 1; collapsing && (op < 9 || step%10000 > 9000) {
			op = 5
		}
		capacity := len(tbl.stripes[0].entries)
		peak = max(peak, capacity)
		if step%10000 == 9999 {
			if step/10000%2 == 0 && peak < 512 {
				t.Fatalf("step %d: stripe 0 only grew to %d slots", step, peak)
			}
			if step/10000%2 == 1 && capacity > peak/4 {
				t.Fatalf("step %d: stripe 0 still has %d slots after the collapse (peak %d)", step, capacity, peak)
			}
		}
		switch op {
		case 0, 1: // put / replace, keeps the load
			node := nodes[rng.Intn(len(nodes))]
			tbl.Put(id, node)
			if !held {
				m = &modelSlot{}
				model[id] = m
			}
			m.node = node
		case 2: // counting put
			node, n := nodes[rng.Intn(len(nodes))], uint64(rng.Intn(3))
			tbl.PutHashed(id, hash, node, n)
			if !held {
				m = &modelSlot{}
				model[id] = m
			}
			m.node = node
			m.add(n)
		case 3, 4, 7: // counted lookup, either key form
			var node platform.NodeID
			var ok bool
			if rng.Intn(2) == 0 {
				node, ok = tbl.GetCounted(id, hash)
			} else {
				node, ok = tbl.GetCountedBytes([]byte(id), hash)
			}
			if ok != held || (held && node != m.node) {
				t.Fatalf("step %d: counted lookup of %s = %q,%v; model %v", step, id, node, ok, m)
			}
			if held {
				m.add(1)
			}
		case 5, 6: // delete
			if got := tbl.DeleteHashed(id, hash); got != held {
				t.Fatalf("step %d: Delete(%s) = %v, model %v", step, id, got, held)
			}
			delete(model, id)
		case 8: // AddLoad, sometimes enough to saturate
			n := uint64(rng.Intn(5))
			if rng.Intn(50) == 0 {
				n = MaxLoad - 1
			}
			if got := tbl.AddLoad(id, n); got != held {
				t.Fatalf("step %d: AddLoad(%s) = %v, model %v", step, id, got, held)
			}
			if held {
				m.add(n)
			}
		default: // plain lookup counts nothing
			if node, ok := tbl.GetHashed(id, hash); ok != held || (held && node != m.node) {
				t.Fatalf("step %d: Get(%s) = %q,%v; model %v", step, id, node, ok, m)
			}
		}
		if step%5000 == 4999 {
			checkAgainstModel(t, tbl, model)
		}
	}
	checkAgainstModel(t, tbl, model)
}

// TestLoadSaturates: the counter stops at MaxLoad however it gets there.
func TestLoadSaturates(t *testing.T) {
	tbl := New()
	tbl.PutHashed("hot", ids.AgentID("hot").Hash64(), "n0", 1<<31)
	tbl.AddLoad("hot", 1<<31)
	tbl.GetCounted("hot", ids.AgentID("hot").Hash64())
	tbl.AddLoad("hot", 1<<63)
	tbl.AddLoad("hot", ^uint64(0))
	tbl.RangeSlots(func(s Slot) bool {
		if s.Load != MaxLoad {
			t.Errorf("load = %d, want saturated at %d", s.Load, uint32(MaxLoad))
		}
		return true
	})
}

// TestLoadGobRoundTrip: a gob stream carries the counters, and a stream
// without the loads slice — what a build from before the counters lived here
// writes — decodes with zero loads; in the other direction such a build skips
// the slice it does not know.
func TestLoadGobRoundTrip(t *testing.T) {
	src := New()
	want := make(map[ids.AgentID]uint32)
	for i := 0; i < 500; i++ {
		id := ids.AgentID(fmt.Sprintf("g-%d", i))
		src.PutHashed(id, id.Hash64(), platform.NodeID(fmt.Sprintf("n%d", i%3)), uint64(i%7))
		want[id] = uint32(i % 7)
	}
	data, err := src.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := back.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(want) {
		t.Fatalf("decoded %d entries, want %d", back.Len(), len(want))
	}
	back.RangeSlots(func(s Slot) bool {
		if s.Load != want[s.Agent] {
			t.Errorf("%s came back with load %d, want %d", s.Agent, s.Load, want[s.Agent])
		}
		if node, _ := src.Get(s.Agent); node != s.Node {
			t.Errorf("%s came back at %s, want %s", s.Agent, s.Node, node)
		}
		return true
	})

	// The stream as the previous build wrote and reads it: two slices.
	type oldChunk struct {
		Agents []ids.AgentID
		Nodes  []platform.NodeID
	}
	var old bytes.Buffer
	enc := gob.NewEncoder(&old)
	if err := enc.Encode(1); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(oldChunk{Agents: []ids.AgentID{"x", "y"}, Nodes: []platform.NodeID{"n0", "n1"}}); err != nil {
		t.Fatal(err)
	}
	var fromOld Table
	if err := fromOld.GobDecode(old.Bytes()); err != nil {
		t.Fatalf("old stream: %v", err)
	}
	fromOld.RangeSlots(func(s Slot) bool {
		if s.Load != 0 {
			t.Errorf("old stream gave %s load %d, want 0", s.Agent, s.Load)
		}
		return true
	})
	if node, ok := fromOld.Get("y"); !ok || node != "n1" || fromOld.Len() != 2 {
		t.Errorf("old stream decoded to y=%q,%v Len %d", node, ok, fromOld.Len())
	}

	dec := gob.NewDecoder(bytes.NewReader(data))
	var stripes int
	if err := dec.Decode(&stripes); err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < stripes; i++ {
		var c oldChunk
		if err := dec.Decode(&c); err != nil {
			t.Fatalf("old reader, chunk %d: %v", i, err)
		}
		if len(c.Agents) != len(c.Nodes) {
			t.Fatalf("old reader, chunk %d: %d agents, %d nodes", i, len(c.Agents), len(c.Nodes))
		}
		got += len(c.Agents)
	}
	if got != len(want) {
		t.Errorf("old reader saw %d entries, want %d", got, len(want))
	}
}

// TestLoadConcurrentCounting has 8 goroutines counting on the slots that 2
// others keep putting and deleting around, all on the same stripes. Under
// -race it checks the locking; everywhere it checks that no count is lost on
// the entries that stay put.
func TestLoadConcurrentCounting(t *testing.T) {
	tbl := NewWithStripes(2)
	const stable, churn, perCounter = 64, 256, 4000
	id := func(kind string, i int) ids.AgentID { return ids.AgentID(fmt.Sprintf("%s-%d", kind, i)) }
	for i := 0; i < stable; i++ {
		tbl.Put(id("s", i), "n0")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCounter; i++ {
				a := id("s", (g+i)%stable)
				if i%2 == 0 {
					tbl.GetCounted(a, a.Hash64())
				} else {
					tbl.GetCountedBytes([]byte(a), a.Hash64())
				}
				c := id("c", i%churn)
				tbl.GetCounted(c, c.Hash64()) // may or may not be there
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*churn; i++ {
				c := id("c", (i*7+g)%churn)
				if i%3 == 2 {
					tbl.Delete(c)
				} else {
					tbl.Put(c, platform.NodeID(fmt.Sprintf("n%d", i%4)))
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	tbl.RangeSlots(func(s Slot) bool {
		if s.Agent[0] == 's' {
			total += uint64(s.Load)
		}
		return true
	})
	if total != 8*perCounter {
		t.Errorf("stable slots counted %d requests, want %d", total, 8*perCounter)
	}
}
