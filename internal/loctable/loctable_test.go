package loctable

import (
	"fmt"
	"sync"
	"testing"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

func TestBasicOperations(t *testing.T) {
	tbl := New()
	if tbl.Len() != 0 {
		t.Fatalf("fresh table has %d entries", tbl.Len())
	}
	tbl.Put("a", "n1")
	tbl.Put("b", "n2")
	tbl.Put("a", "n3") // replace must not double-count
	if got := tbl.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if node, ok := tbl.Get("a"); !ok || node != "n3" {
		t.Fatalf("Get(a) = %q, %v", node, ok)
	}
	if !tbl.Delete("a") {
		t.Fatal("Delete(a) found nothing")
	}
	if tbl.Delete("a") {
		t.Fatal("second Delete(a) claimed an entry")
	}
	if _, ok := tbl.Get("a"); ok {
		t.Fatal("deleted entry still present")
	}
	if got := tbl.Len(); got != 1 {
		t.Fatalf("Len after delete = %d, want 1", got)
	}
}

func TestSnapshotAndRange(t *testing.T) {
	tbl := New()
	want := make(map[ids.AgentID]platform.NodeID)
	for i := 0; i < 200; i++ {
		id := ids.AgentID(fmt.Sprintf("agent-%d", i))
		want[id] = platform.NodeID(fmt.Sprintf("node-%d", i%7))
		tbl.Put(id, want[id])
	}
	snap := tbl.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), len(want))
	}
	for a, n := range want {
		if snap[a] != n {
			t.Fatalf("snapshot[%s] = %s, want %s", a, snap[a], n)
		}
	}
	seen := 0
	tbl.Range(func(a ids.AgentID, n platform.NodeID) bool {
		if want[a] != n {
			t.Errorf("range saw %s → %s, want %s", a, n, want[a])
		}
		seen++
		return true
	})
	if seen != len(want) {
		t.Fatalf("range visited %d entries, want %d", seen, len(want))
	}
	// Early-exit range stops.
	visited := 0
	tbl.Range(func(ids.AgentID, platform.NodeID) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Fatalf("early-exit range visited %d entries, want 5", visited)
	}
}

func TestStripeCountRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 1}, {1, 1}, {3, 4}, {16, 16}, {17, 32}} {
		tbl := NewWithStripes(tc.ask)
		if got := len(tbl.stripes); got != tc.want {
			t.Errorf("NewWithStripes(%d) built %d stripes, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestConcurrentMixedLoad hammers the table with parallel locate-style reads
// and register/moved/deregister-style writes; run under -race this is the
// stripe-locking correctness test.
func TestConcurrentMixedLoad(t *testing.T) {
	tbl := New()
	const agents = 128
	idFor := func(i int) ids.AgentID { return ids.AgentID(fmt.Sprintf("c-%d", i%agents)) }
	for i := 0; i < agents; i++ {
		tbl.Put(idFor(i), "seed")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := idFor(i*7 + w)
				switch i % 8 {
				case 0:
					tbl.Put(id, platform.NodeID(fmt.Sprintf("n-%d", w)))
				case 1:
					tbl.Delete(id)
					tbl.Put(id, "back")
				case 2:
					_ = tbl.Len()
				case 3:
					if i%64 == 3 {
						_ = tbl.Snapshot()
					}
				default:
					tbl.Get(id)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every agent was always re-inserted after a delete.
	if got := tbl.Len(); got != agents {
		t.Fatalf("Len after churn = %d, want %d", got, agents)
	}
}
