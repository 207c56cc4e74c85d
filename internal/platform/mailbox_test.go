package platform

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"agentloc/internal/raceflag"
	"agentloc/internal/transport"
)

// A mailbox that drains between requests keeps its space: a push and a pop at
// depth one allocate nothing once the ring exists.
func TestMailboxDepthOneAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := newMailbox()
	w := work{kind: "x"}
	m.push(w)
	m.pop()
	allocs := testing.AllocsPerRun(1000, func() {
		m.push(w)
		m.pop()
	})
	if allocs != 0 {
		t.Errorf("push+pop at depth 1 allocates %.1f times, want 0", allocs)
	}
}

// A popped request is the mailbox's no longer: its payload is collectable
// while the mailbox lives on.
func TestMailboxForgetsPoppedWork(t *testing.T) {
	m := newMailbox()
	collected := make(chan struct{})
	func() {
		buf := new([256]byte)
		runtime.SetFinalizer(buf, func(*[256]byte) { close(collected) })
		m.push(work{kind: "x", payload: buf[:]})
		m.push(work{kind: "y"})
		if w, ok := m.pop(); !ok || w.kind != "x" {
			t.Fatalf("pop = %q, %v; want x", w.kind, ok)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if m.Len() != 1 {
				t.Errorf("Len = %d after one pop of two, want 1", m.Len())
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a popped payload stayed reachable from the mailbox")
		}
	}
}

// The ring keeps FIFO order across wrap-around and growth, and close hands
// back what is still queued, oldest first.
func TestMailboxOrderAcrossGrowth(t *testing.T) {
	m := newMailbox()
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			m.push(work{kind: strconv.Itoa(next)})
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			w, ok := m.pop()
			if !ok || w.kind != strconv.Itoa(want) {
				t.Fatalf("pop %d: got %q, %v", want, w.kind, ok)
			}
			want++
		}
	}
	push(3)
	pop(2)
	push(5) // wraps, then grows with the queue split across the end
	pop(3)
	push(9)
	pop(4)
	rest := m.close()
	if len(rest) != next-want {
		t.Fatalf("close returned %d items, want %d", len(rest), next-want)
	}
	for i, w := range rest {
		if w.kind != strconv.Itoa(want+i) {
			t.Fatalf("close item %d = %q, want %d", i, w.kind, want+i)
		}
	}
	if m.push(work{}) {
		t.Error("push after close succeeded")
	}
}

// TestCallAgentLocalSerialAllocBudget is the budget of a same-node call
// through a serial mailbox under a per-call transport.DeadlineContext, as a
// client bounds every call (measured: 1 — the handler's answer boxed as a
// value; 2 while the deadline context was built per call, 8 while each
// request built a result channel, the context's Done channel and its timer,
// and the mailbox's slice crept forward and reallocated).
func TestCallAgentLocalSerialAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n, _ := newCountingNode(t, Config{ID: "n1"})
	if err := n.Launch("serial", &echoBehavior{}); err != nil {
		t.Fatal(err)
	}
	var callErr error
	allocs := testing.AllocsPerRun(2000, func() {
		dc := transport.WithDeadline(context.Background(), time.Now().Add(time.Minute))
		if err := n.CallAgent(dc, "n1", "serial", "whereami", nil, nil); err != nil {
			callErr = err
		}
		dc.Release()
	})
	if callErr != nil {
		t.Fatal(callErr)
	}
	t.Logf("%.1f allocs per same-node serial call", allocs)
	if allocs > 1 {
		t.Errorf("a same-node serial call allocates %.1f times, budget 1", allocs)
	}
}
