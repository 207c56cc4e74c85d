package loctable

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// TestSlotIs16BytesAndHoldsNoPointer pins the layout the per-agent memory
// budget rests on, and what keeps the collector off the table: no field of a
// slot is, or holds, anything the collector would follow.
func TestSlotIs16BytesAndHoldsNoPointer(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Errorf("slot is %d bytes, want 16", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("slot field %s is a %s", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("entry", reflect.TypeOf(entry{}))
}

// TestTableIsNotScanned: a table of 2^17 ids, each decoded into an
// allocation of its own, leaves the collector no more to scan than it found.
// (With the id a string field of the slot, every slot was scanned: 64 B per
// agent at half load.)
func TestTableIsNotScanned(t *testing.T) {
	const agents = 1 << 17
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	scannable := func() float64 {
		runtime.GC()
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			t.Skipf("this runtime does not report %s", sample[0].Name)
		}
		return float64(sample[0].Value.Uint64())
	}
	before := scannable()
	tbl := New()
	buf := []byte("agent-")
	for i := 0; i < agents; i++ {
		buf = strconv.AppendInt(buf[:len("agent-")], int64(i), 10)
		tbl.Put(ids.AgentID(buf), "node-0") // a fresh string per id, as a decoder makes
	}
	perAgent := (scannable() - before) / agents
	runtime.KeepAlive(tbl)
	t.Logf("%.2f B of scannable heap per agent", perAgent)
	if perAgent >= 1 {
		t.Errorf("the table left %.2f B per agent for the collector to scan, want < 1", perAgent)
	}
	if tbl.Len() != agents {
		t.Fatalf("table holds %d entries, want %d", tbl.Len(), agents)
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

// heldView is an id as the table handed it out, kept across later writes,
// with a copy of what it read then.
type heldView struct {
	agent ids.AgentID
	want  string
	from  *stripe
}

// inArena reports whether an id the table handed out still points into the
// stripe's current key arena, that is, whether the arena it was read from has
// not been replaced since.
func inArena(s *stripe, agent ids.AgentID) bool {
	if len(s.keys) == 0 || len(agent) == 0 {
		return false
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(s.keys)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(string(agent))))
	return p >= start && p < start+uintptr(len(s.keys))
}

// checkViews fails on a held id that no longer reads what it read when it
// was handed out, and reports how many outlived the arena they were read from.
func checkViews(t *testing.T, step int, views []heldView) (outlived int) {
	t.Helper()
	for _, v := range views {
		if string(v.agent) != v.want {
			t.Fatalf("step %d: an id handed out as %q now reads %q", step, v.want, v.agent)
		}
		if !inArena(v.from, v.agent) {
			outlived++
		}
	}
	return outlived
}

// TestLoadModelEquivalence drives puts, counted lookups, AddLoadHashed and
// deletes against a map model, over a population that
// swells and collapses so stripes grow, shrink, backward-shift and compact
// their key arenas with counters in them. Ids taken from GetSlot and
// RangeSlots are held across all of it and must keep reading the same bytes.
func TestLoadModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tbl := NewWithStripes(4)
	model := make(map[ids.AgentID]*modelSlot)
	nodes := []platform.NodeID{"n0", "n1", "n2"}
	peak := 0
	var views []heldView
	hold := func(s Slot) {
		v := heldView{agent: s.Agent, want: strings.Clone(string(s.Agent)), from: &tbl.stripes[s.Hash&tbl.mask]}
		if len(views) < 4096 {
			views = append(views, v)
		} else {
			views[rng.Intn(len(views))] = v
		}
	}
	compactions := 0
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
		case 3, 4, 7: // counted lookup
			node, ok := tbl.GetCountedBytes([]byte(id), hash)
			if ok != held || (held && node != m.node) {
				t.Fatalf("step %d: counted lookup of %s = %q,%v; model %v", step, id, node, ok, m)
			}
			if held {
				m.add(1)
			}
		case 5, 6: // delete, sometimes compacting the arena
			s := &tbl.stripes[hash&tbl.mask]
			arena, slots := unsafe.SliceData(s.keys), len(s.entries)
			if got := tbl.DeleteHashed(id, hash); got != held {
				t.Fatalf("step %d: Delete(%s) = %v, model %v", step, id, got, held)
			}
			if unsafe.SliceData(s.keys) != arena && len(s.entries) == slots {
				compactions++
			}
			delete(model, id)
		case 8: // AddLoadHashed, sometimes enough to saturate
			n := uint64(rng.Intn(5))
			if rng.Intn(50) == 0 {
				n = MaxLoad - 1
			}
			if got := tbl.AddLoadHashed(id, hash, n); got != held {
				t.Fatalf("step %d: AddLoadHashed(%s) = %v, model %v", step, id, got, held)
			}
			if held {
				m.add(n)
			}
		default: // plain lookup counts nothing
			if node, ok := tbl.GetHashed(id, hash); ok != held || (held && node != m.node) {
				t.Fatalf("step %d: Get(%s) = %q,%v; model %v", step, id, node, ok, m)
			}
		}
		if step%50 == 0 {
			if s, ok := tbl.GetSlot(id, hash); ok {
				hold(s)
			}
			n := rng.Intn(8)
			tbl.RangeSlots(func(s Slot) bool {
				hold(s)
				n--
				return n >= 0
			})
		}
		if step%5000 == 4999 {
			checkAgainstModel(t, tbl, model)
			checkViews(t, step, views)
		}
	}
	checkAgainstModel(t, tbl, model)
	outlived := checkViews(t, 60000, views)
	t.Logf("%d deletion-triggered compactions; %d of %d held ids outlived their arena", compactions, outlived, len(views))
	if compactions == 0 || outlived == 0 {
		t.Errorf("%d compactions, %d ids outlived their arena: the schedule never moved an id a view held", compactions, outlived)
	}
}

// TestLoadSaturates: the counter stops at MaxLoad however it gets there.
func TestLoadSaturates(t *testing.T) {
	tbl := New()
	hot := ids.AgentID("hot").Hash64()
	tbl.PutHashed("hot", hot, "n0", 1<<31)
	tbl.AddLoadHashed("hot", hot, 1<<31)
	tbl.GetCountedBytes([]byte("hot"), hot)
	tbl.AddLoadHashed("hot", hot, 1<<63)
	tbl.AddLoadHashed("hot", hot, ^uint64(0))
	tbl.RangeSlots(func(s Slot) bool {
		if s.Load != MaxLoad {
			t.Errorf("load = %d, want saturated at %d", s.Load, uint32(MaxLoad))
		}
		return true
	})
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
					tbl.AddLoadHashed(a, a.Hash64(), 1)
				} else {
					tbl.GetCountedBytes([]byte(a), a.Hash64())
				}
				c := id("c", i%churn)
				tbl.GetCountedBytes([]byte(c), c.Hash64()) // may or may not be there
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

// TestViewsSurviveConcurrentCompaction has readers hold the ids GetSlot and
// RangeSlots hand out while a writer churns the same stripe through arena
// compactions and resizes; every held id keeps reading its bytes. Under -race
// it also checks that nothing writes the bytes a view reads.
func TestViewsSurviveConcurrentCompaction(t *testing.T) {
	tbl := NewWithStripes(1)
	s := &tbl.stripes[0]
	const stable, churn, rounds = 64, 512, 40
	id := func(kind string, i int) ids.AgentID { return ids.AgentID(fmt.Sprintf("%s-%d", kind, i)) }
	for i := 0; i < stable; i++ {
		tbl.Put(id("s", i), "n0")
	}
	var done atomic.Bool
	var compactions atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for r := 0; r < rounds; r++ {
			for i := 0; i < churn; i++ {
				tbl.Put(id("c", i), "n1")
			}
			for i := 0; i < churn; i++ {
				s.mu.RLock()
				arena, capacity := unsafe.SliceData(s.keys), len(s.entries)
				s.mu.RUnlock()
				tbl.Delete(id("c", i))
				s.mu.RLock()
				if unsafe.SliceData(s.keys) != arena && len(s.entries) == capacity {
					compactions.Add(1)
				}
				s.mu.RUnlock()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var views []heldView
			for i := 0; !done.Load(); i++ {
				want := id("s", (g+i)%stable)
				got, ok := tbl.GetSlot(want, want.Hash64())
				if !ok {
					t.Errorf("stable id %s missing", want)
					return
				}
				views = append(views, heldView{agent: got.Agent, want: string(want)})
				n := i % 5
				tbl.RangeSlots(func(s Slot) bool {
					views = append(views, heldView{agent: s.Agent, want: strings.Clone(string(s.Agent))})
					n--
					return n >= 0
				})
				for _, v := range views {
					if string(v.agent) != v.want {
						t.Errorf("an id handed out as %q now reads %q", v.want, v.agent)
						return
					}
				}
				if len(views) > 256 {
					views = views[:0]
				}
			}
		}(g)
	}
	wg.Wait()
	if compactions.Load() == 0 {
		t.Error("the writer never compacted the arena under the readers")
	}
}
