package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Emit("a", "k", "d") // must not panic
	if got := l.Snapshot(); got != nil {
		t.Errorf("nil Snapshot = %v", got)
	}
	if got := l.Total(); got != 0 {
		t.Errorf("nil Total = %d", got)
	}
}

func TestEmitAndSnapshot(t *testing.T) {
	l := NewLog(10)
	l.Emit("hagent", "rehash.split", "iagent-1 → iagent-2")
	l.Emit("iagent-1", "iagent.adopt", "v2")
	events := l.Snapshot()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Kind != "rehash.split" || events[1].Actor != "iagent-1" {
		t.Errorf("events = %+v", events)
	}
	if l.Total() != 2 {
		t.Errorf("Total = %d", l.Total())
	}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 7; i++ {
		l.emitAt(time.Unix(int64(i), 0), "a", "k", "d")
	}
	events := l.Snapshot()
	if len(events) != 3 {
		t.Fatalf("retained = %d, want 3", len(events))
	}
	// Oldest first: events 4, 5, 6.
	for i, want := range []int64{4, 5, 6} {
		if events[i].At.Unix() != want {
			t.Errorf("events[%d].At = %v, want %d", i, events[i].At.Unix(), want)
		}
	}
	if l.Total() != 7 {
		t.Errorf("Total = %d, want 7", l.Total())
	}
}

func TestCapacityClamped(t *testing.T) {
	l := NewLog(0)
	l.Emit("a", "k", "1")
	l.Emit("a", "k", "2")
	events := l.Snapshot()
	if len(events) != 1 || events[0].Detail != "2" {
		t.Errorf("events = %+v, want only the latest", events)
	}
}

func TestFilter(t *testing.T) {
	l := NewLog(10)
	l.Emit("h", "rehash.split", "")
	l.Emit("h", "rehash.merge", "")
	l.Emit("i", "iagent.adopt", "")
	if got := len(l.Filter("rehash.")); got != 2 {
		t.Errorf("Filter(rehash.) = %d, want 2", got)
	}
	if got := len(l.Filter("iagent.")); got != 1 {
		t.Errorf("Filter(iagent.) = %d, want 1", got)
	}
	if got := len(l.Filter("nothing")); got != 0 {
		t.Errorf("Filter(nothing) = %d, want 0", got)
	}
}

func TestRenderAndString(t *testing.T) {
	l := NewLog(4)
	l.emitAt(time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC), "hagent", "rehash.split", "details here")
	out := l.Render()
	for _, want := range []string{"rehash.split", "hagent", "details here", "12:00:00.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestSetOnEmit(t *testing.T) {
	l := NewLog(4)
	var mu sync.Mutex
	var seen []Event
	l.SetOnEmit(func(e Event) {
		mu.Lock()
		seen = append(seen, e)
		mu.Unlock()
	})
	l.Emit("hagent", "rehash.split", "one")
	l.Emit("iagent-1", "iagent.adopt", "two")
	mu.Lock()
	if len(seen) != 2 || seen[0].Kind != "rehash.split" || seen[1].Detail != "two" {
		t.Errorf("hook saw %+v", seen)
	}
	mu.Unlock()

	// The hook may inspect the log without deadlocking (it runs outside
	// the lock).
	l.SetOnEmit(func(Event) { _ = l.Snapshot() })
	l.Emit("x", "k", "d")

	// Clearing the hook stops delivery; a nil log ignores the call.
	l.SetOnEmit(nil)
	l.Emit("x", "k", "d")
	mu.Lock()
	if len(seen) != 2 {
		t.Errorf("hook fired after removal: %d events", len(seen))
	}
	mu.Unlock()
	var nl *Log
	nl.SetOnEmit(func(Event) {}) // must not panic
}

func TestConcurrentEmit(t *testing.T) {
	l := NewLog(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Emit("x", "k", "d")
				_ = l.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := l.Total(); got != 4000 {
		t.Errorf("Total = %d, want 4000", got)
	}
	if got := len(l.Snapshot()); got != 64 {
		t.Errorf("retained = %d, want 64", got)
	}
}

// TestSetOnEmitReentrantEmit pins the fix for a stack blow-up: a hook that
// emits into its own log (a metrics bridge cascading into a traced counter,
// say) used to recurse through emitAt -> hook -> emitAt without bound. The
// re-entrant event must queue and be delivered in order by the goroutine
// already draining the hook.
func TestSetOnEmitReentrantEmit(t *testing.T) {
	l := NewLog(16)
	var seen []string
	l.SetOnEmit(func(e Event) {
		seen = append(seen, e.Kind)
		if e.Kind == "outer" {
			l.Emit("hook", "inner", "emitted from inside the hook")
		}
	})
	l.Emit("test", "outer", "")
	if len(seen) != 2 || seen[0] != "outer" || seen[1] != "inner" {
		t.Fatalf("hook saw %v, want [outer inner]", seen)
	}
	// Both events landed in the ring too.
	if got := l.Snapshot(); len(got) != 2 || got[1].Kind != "inner" {
		t.Errorf("snapshot = %+v", got)
	}

	// A hook that emits on EVERY event must still terminate: clearing the
	// hook from inside itself stops the drain loop.
	n := 0
	l.SetOnEmit(func(Event) {
		n++
		if n >= 5 {
			l.SetOnEmit(nil)
			return
		}
		l.Emit("hook", "again", "")
	})
	l.Emit("test", "first", "")
	if n != 5 {
		t.Errorf("self-feeding hook fired %d times, want 5 (then cleared)", n)
	}
}
