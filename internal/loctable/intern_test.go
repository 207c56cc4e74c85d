package loctable

import (
	"fmt"
	"sync"
	"testing"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// TestInternChurnBounded is the regression test for the unbounded intern
// leak: a long-lived table on a churny cluster saw a new node id per epoch
// and interned every one forever. With refcounted interning the map must
// track the live node set only.
func TestInternChurnBounded(t *testing.T) {
	tab := New()
	const agents = 64
	for epoch := 0; epoch < 200; epoch++ {
		node := platform.NodeID(fmt.Sprintf("node-%d", epoch))
		for i := 0; i < agents; i++ {
			tab.Put(ids.AgentID(fmt.Sprintf("agent-%d", i)), node)
		}
		if got := tab.InternedNodes(); got != 1 {
			t.Fatalf("epoch %d: %d interned nodes, want 1 (only the live node)", epoch, got)
		}
	}
	if tab.Len() != agents {
		t.Fatalf("Len = %d, want %d", tab.Len(), agents)
	}

	// Deleting everything must empty the intern map too.
	for i := 0; i < agents; i++ {
		tab.Delete(ids.AgentID(fmt.Sprintf("agent-%d", i)))
	}
	if got := tab.InternedNodes(); got != 0 {
		t.Fatalf("after deleting all entries: %d interned nodes, want 0", got)
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tab.Len())
	}
}

// TestInternTracksLiveNodes pins the exact refcount semantics: the intern
// map holds one entry per distinct node with at least one live table
// entry, across Put-replace and Delete.
func TestInternTracksLiveNodes(t *testing.T) {
	tab := New()
	tab.Put("a", "n1")
	tab.Put("b", "n1")
	tab.Put("c", "n2")
	if got := tab.InternedNodes(); got != 2 {
		t.Fatalf("InternedNodes = %d, want 2", got)
	}

	// Re-pointing c away from n2 must evict n2.
	tab.Put("c", "n1")
	if got := tab.InternedNodes(); got != 1 {
		t.Fatalf("after re-point: InternedNodes = %d, want 1", got)
	}

	// A same-node overwrite must not disturb the count.
	tab.Put("a", "n1")
	if got := tab.InternedNodes(); got != 1 {
		t.Fatalf("after same-node Put: InternedNodes = %d, want 1", got)
	}

	tab.Delete("a")
	tab.Delete("b")
	if got := tab.InternedNodes(); got != 1 {
		t.Fatalf("n1 still referenced by c: InternedNodes = %d, want 1", got)
	}
	tab.Delete("c")
	if got := tab.InternedNodes(); got != 0 {
		t.Fatalf("empty table: InternedNodes = %d, want 0", got)
	}

	// Deleting a missing agent must not underflow anything.
	if tab.Delete("a") {
		t.Fatal("Delete of absent agent reported true")
	}
	tab.Put("a", "n1")
	if node, ok := tab.Get("a"); !ok || node != "n1" {
		t.Fatalf("Get after re-add = %q, %v", node, ok)
	}
	if got := tab.InternedNodes(); got != 1 {
		t.Fatalf("after re-add: InternedNodes = %d, want 1", got)
	}
}

// TestInternConcurrentChurn races Put/Delete over a small node set to
// shake out acquire/release races (run under -race in CI). The final
// intern count must equal the distinct nodes of the surviving entries.
func TestInternConcurrentChurn(t *testing.T) {
	tab := New()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				agent := ids.AgentID(fmt.Sprintf("w%d-a%d", w, i%16))
				node := platform.NodeID(fmt.Sprintf("node-%d", i%3))
				if i%5 == 4 {
					tab.Delete(agent)
				} else {
					tab.Put(agent, node)
				}
			}
		}(w)
	}
	wg.Wait()

	live := make(map[platform.NodeID]bool)
	tab.Range(func(_ ids.AgentID, n platform.NodeID) bool {
		live[n] = true
		return true
	})
	if got := tab.InternedNodes(); got != len(live) {
		t.Fatalf("InternedNodes = %d, live distinct nodes = %d", got, len(live))
	}
}

// TestInternSerializeRoundTrip checks refcounts flow through Deserialize (it
// routes entries through Put).
func TestInternSerializeRoundTrip(t *testing.T) {
	tab := New()
	for i := 0; i < 100; i++ {
		tab.Put(ids.AgentID(fmt.Sprintf("agent-%d", i)), platform.NodeID(fmt.Sprintf("node-%d", i%4)))
	}
	data, err := tab.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.InternedNodes(); got != 4 {
		t.Fatalf("decoded table interns %d nodes, want 4", got)
	}
	for i := 0; i < 100; i++ {
		out.Delete(ids.AgentID(fmt.Sprintf("agent-%d", i)))
	}
	if got := out.InternedNodes(); got != 0 {
		t.Fatalf("after clearing decoded table: %d interned nodes, want 0", got)
	}
}
