package platform

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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

// exclusive counts the times two of its mailbox items ran at once.
type exclusive struct {
	inside, overlaps, served atomic.Int32
}

func (e *exclusive) enter() {
	if e.inside.Add(1) != 1 {
		e.overlaps.Add(1)
	}
	runtime.Gosched()
	e.served.Add(1)
	e.inside.Add(-1)
}

func (e *exclusive) HandleRequest(*Context, string, []byte) (any, error) {
	e.enter()
	return nil, nil
}

// A closure Do queues runs between two requests, never beside one, and is
// handed the agent's behaviour and its Context.
func TestMailboxDoNeverOverlapsRequests(t *testing.T) {
	n := newTestNodes(t, "n1")["n1"]
	e := &exclusive{}
	if err := n.Launch("x", e); err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers*each)
	for range workers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range each {
				errs <- n.CallAgent(callCtx(t), "n1", "x", "k", nil, nil)
			}
		}()
		go func() {
			defer wg.Done()
			for range each {
				errs <- n.Do(callCtx(t), "x", func(b Behavior, ctx *Context) {
					if b != Behavior(e) || ctx.Self() != "x" {
						t.Errorf("closure handed %T at %s", b, ctx.Self())
					}
					e.enter()
				})
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := e.overlaps.Load(); got != 0 {
		t.Errorf("%d mailbox items ran beside another", got)
	}
	if got := e.served.Load(); got != 2*workers*each {
		t.Errorf("served %d items, want %d", got, 2*workers*each)
	}
}

// keeper hands its Run goroutine's Context to the test and waits for its stop.
type keeper struct{ ctx chan *Context }

func (k *keeper) HandleRequest(*Context, string, []byte) (any, error) { return nil, nil }

func (k *keeper) Run(ctx *Context) error {
	k.ctx <- ctx
	<-ctx.Done()
	return nil
}

// Do on an agent the node does not host, and Context.Do from an agent that
// stopped, answer agent-not-found and run nothing.
func TestMailboxDoAbsentOrStoppedAgent(t *testing.T) {
	n := newTestNodes(t, "n1")["n1"]
	var ran atomic.Int32
	f := func(Behavior, *Context) { ran.Add(1) }
	if err := n.Do(callCtx(t), "ghost", f); !errors.Is(err, ErrAgentNotFound) || !IsAgentNotFound(err) {
		t.Errorf("Do on an absent agent = %v, want agent-not-found", err)
	}
	k := &keeper{ctx: make(chan *Context, 1)}
	if err := n.Launch("k", k); err != nil {
		t.Fatal(err)
	}
	ctx := <-k.ctx
	if err := ctx.Do(callCtx(t), f); err != nil || ran.Load() != 1 {
		t.Fatalf("Context.Do on a live agent = %v, ran %d times", err, ran.Load())
	}
	if err := n.Kill("k"); err != nil {
		t.Fatal(err)
	}
	if err := n.Do(callCtx(t), "k", f); !IsAgentNotFound(err) {
		t.Errorf("Do on a killed agent = %v, want agent-not-found", err)
	}
	if err := ctx.Do(callCtx(t), f); !IsAgentNotFound(err) {
		t.Errorf("Context.Do from a killed agent = %v, want agent-not-found", err)
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("closures ran %d times, want 1", got)
	}
}

// stuckAgent launches a blockingBehavior and parks one request in it, so what
// is queued next waits until release is called (at the latest by the cleanup).
func stuckAgent(t *testing.T, n *Node) (release func()) {
	t.Helper()
	b := &blockingBehavior{entered: make(chan struct{}, 1), release: make(chan struct{})}
	if err := n.Launch("stuck", b); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(b.release) }) }
	t.Cleanup(release)
	go func() { _ = n.CallAgent(context.Background(), n.ID(), "stuck", "x", nil, nil) }()
	<-b.entered
	return release
}

// A closure still queued when its agent is killed or its node crashes is
// answered agent-not-found at the stop, before the request being served ends,
// and never runs.
func TestMailboxDoQueuedAtStopIsAnsweredNotRun(t *testing.T) {
	for _, stop := range []string{"kill", "crash"} {
		t.Run(stop, func(t *testing.T) {
			n := newTestNodes(t, "n1")["n1"]
			release := stuckAgent(t, n)
			var ran atomic.Bool
			done := make(chan error, 1)
			go func() { done <- n.Do(context.Background(), "stuck", func(Behavior, *Context) { ran.Store(true) }) }()
			for deadline := time.Now().Add(5 * time.Second); n.QueueLen("stuck") == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the closure was never queued")
				}
			}
			// Both wait for the request being served, which the release ends.
			killed := make(chan error, 1)
			go func() {
				if stop == "kill" {
					killed <- n.Kill("stuck")
					return
				}
				n.Crash()
				killed <- nil
			}()
			select {
			case err := <-done:
				if !IsAgentNotFound(err) {
					t.Errorf("queued closure at %s = %v, want agent-not-found", stop, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("queued closure not answered at %s", stop)
			}
			release()
			if err := <-killed; err != nil {
				t.Fatal(err)
			}
			if ran.Load() {
				t.Errorf("a closure queued at %s ran", stop)
			}
		})
	}
}

// A Do whose ctx ends before its turn returns ctx's error, and the closure it
// gave up on never runs, while the one queued after it does.
func TestMailboxDoHonoursContext(t *testing.T) {
	n := newTestNodes(t, "n1")["n1"]
	release := stuckAgent(t, n)
	var ran atomic.Bool
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := n.Do(ctx, "stuck", func(Behavior, *Context) { ran.Store(true) }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do past its deadline = %v, want context.DeadlineExceeded", err)
	}
	release()
	var next atomic.Bool
	if err := n.Do(callCtx(t), "stuck", func(Behavior, *Context) { next.Store(true) }); err != nil || !next.Load() {
		t.Fatalf("the closure after = %v, ran %v", err, next.Load())
	}
	if ran.Load() {
		t.Error("the closure whose Do gave up ran")
	}
}

// A closure is charged the agent's service time, as a request is.
func TestMailboxDoChargesServiceTime(t *testing.T) {
	n := newTestNodes(t, "n1")["n1"]
	const svc = 30 * time.Millisecond
	if err := n.Launch("slow", &echoBehavior{}, WithServiceTime(svc)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := n.Do(callCtx(t), "slow", func(Behavior, *Context) {}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < svc {
		t.Errorf("Do returned after %v, under the %v service time", d, svc)
	}
}
