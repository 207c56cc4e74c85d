package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// metricCaller gives a bare test caller a metrics registry so the batcher
// registers its counters where the test can read them.
type metricCaller struct {
	Caller
	reg *metrics.Registry
}

func (m metricCaller) Metrics() *metrics.Registry { return m.reg }

// TestUpdateBatcherCloseBoundedUnderStall is the ISSUE's acceptance
// scenario: with CallTimeout left at zero, a peer that accepts connections
// but never reads must not wedge the flush goroutine — and therefore
// Close — on a deadline-less RPC. Before the fix, flush used
// context.Background() whenever CallTimeout was unset and Close hung until
// the OS gave up the write (minutes, or never).
func TestUpdateBatcherCloseBoundedUnderStall(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test; skipped in -short")
	}
	faults := []*transport.Faults{transport.NewFaults(), transport.NewFaults()}
	c, links := newTCPCluster(t, quietConfig(), 2, func(i int, tc *transport.TCPConfig) {
		tc.Faults = faults[i]
		tc.RedialBackoff = 5 * time.Millisecond
		// No WriteTimeout: the flush deadline must come from the batcher
		// itself, which is exactly what this test pins down.
	})
	ctx := testCtx(t)

	// Register from node-0 so the assignment is known before any stall.
	assign, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "stall-mover")
	if err != nil {
		t.Fatal(err)
	}

	// The batcher under test lives on node-1 with CallTimeout unset.
	bcfg := quietConfig()
	bcfg.CallTimeout = 0
	reg := metrics.New()
	b := NewUpdateBatcher(metricCaller{Caller: NodeCaller{N: c.nodes[1]}, reg: reg}, bcfg, time.Millisecond)

	okC := reg.Counter("agentloc_core_update_batches_total", "result", "ok")
	errC := reg.Counter("agentloc_core_update_batches_total", "result", "error")

	// Stall every write from node-1 toward node-0's listener, then submit
	// one update. The caller gives up quickly; the flush goroutine owns the
	// entry and is now stuck mid-RPC against the stalled peer.
	faults[1].StallWritesTo(links[0].ListenAddr(), true)
	doCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if _, err := b.Do(doCtx, assign, UpdateReq{Agent: "stall-mover", Node: c.nodes[1].ID()}); err == nil {
		t.Fatal("Do against a stalled peer returned no error")
	}

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("Close did not return within 15s under a stalled peer with CallTimeout == 0")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("Close took %v, want bounded by the default flush timeout", elapsed)
	}

	// The stalled batch RPC failed — only the error series may move.
	if got := okC.Value(); got != 0 {
		t.Errorf("batches_total{result=ok} = %d after a failed flush, want 0", got)
	}
	if got := errC.Value(); got == 0 {
		t.Error("batches_total{result=error} = 0 after a failed flush, want > 0")
	}
}

// TestUpdateBatcherFlushesDestinationsConcurrently pins the head-of-line
// fix: two destinations queued in the same tick flush in parallel, so a
// stalled peer costs only its own batch the timeout. Under the old
// sequential loop the healthy destination waited behind the stalled one
// whenever map order put the stalled peer first; with the fix the healthy
// ack always comes back fast.
func TestUpdateBatcherFlushesDestinationsConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test; skipped in -short")
	}
	faults := []*transport.Faults{transport.NewFaults(), transport.NewFaults(), transport.NewFaults()}
	c, links := newTCPCluster(t, quietConfig(), 3, func(i int, tc *transport.TCPConfig) {
		tc.Faults = faults[i]
		tc.RedialBackoff = 5 * time.Millisecond
	})
	ctx := testCtx(t)

	assign, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "hol-mover")
	if err != nil {
		t.Fatal(err)
	}

	// Fake clock: both destinations queue before the single tick releases
	// the flush, guaranteeing they share one flush() call.
	fake := clock.NewFake(time.Unix(1000, 0))
	bcfg := quietConfig()
	bcfg.Clock = fake
	bcfg.CallTimeout = 3 * time.Second
	b := NewUpdateBatcher(NodeCaller{N: c.nodes[2]}, bcfg, 50*time.Millisecond)
	defer b.Close()

	// node-0 is the stalled destination; node-1 answers immediately (there
	// is no such IAgent there, and a fast error is all concurrency needs).
	faults[2].StallWritesTo(links[0].ListenAddr(), true)

	type res struct {
		err     error
		elapsed time.Duration
	}
	stalled := make(chan res, 1)
	healthy := make(chan res, 1)
	go func() {
		start := time.Now()
		_, err := b.Do(ctx, assign, UpdateReq{Agent: "hol-mover", Node: c.nodes[2].ID()})
		stalled <- res{err, time.Since(start)}
	}()
	go func() {
		start := time.Now()
		_, err := b.Do(ctx, Assignment{IAgent: "no-such-iagent", Node: c.nodes[1].ID()},
			UpdateReq{Agent: "hol-mover", Node: c.nodes[2].ID()})
		healthy <- res{err, time.Since(start)}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		dests := len(b.queues)
		b.mu.Unlock()
		if dests == 2 && fake.PendingWaiters() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/2 destinations queued", dests)
		}
		time.Sleep(time.Millisecond)
	}
	fake.Advance(50 * time.Millisecond)

	h := <-healthy
	if h.err == nil {
		t.Error("healthy-destination Do to a missing IAgent returned no error")
	}
	if h.elapsed >= bcfg.CallTimeout {
		t.Errorf("healthy destination waited %v — head-of-line blocked behind the stalled peer", h.elapsed)
	}
	s := <-stalled
	if s.err == nil {
		t.Error("stalled-destination Do returned no error")
	}
}

// TestUpdateBatcherCountsBatchesByResult pins the metrics fix: the batch
// counter is labeled by result, a failed batch RPC no longer inflates the
// ok series, and successes still count.
func TestUpdateBatcherCountsBatchesByResult(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)

	assign, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "metric-mover")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	b := NewUpdateBatcher(metricCaller{Caller: NodeCaller{N: c.nodes[1]}, reg: reg}, quietConfig(), time.Millisecond)
	defer b.Close()
	okC := reg.Counter("agentloc_core_update_batches_total", "result", "ok")
	errC := reg.Counter("agentloc_core_update_batches_total", "result", "error")

	ack, err := b.Do(ctx, assign, UpdateReq{Agent: "metric-mover", Node: c.nodes[1].ID()})
	if err != nil || ack.Status != StatusOK {
		t.Fatalf("successful batch: ack %v, err %v", ack.Status, err)
	}
	if got := okC.Value(); got != 1 {
		t.Errorf("batches_total{result=ok} = %d after one delivered batch, want 1", got)
	}
	if got := errC.Value(); got != 0 {
		t.Errorf("batches_total{result=error} = %d after one delivered batch, want 0", got)
	}

	// A batch whose RPC fails (no such destination agent) must land in the
	// error series and leave ok untouched.
	if _, err := b.Do(ctx, Assignment{IAgent: "ghost-iagent", Node: c.nodes[0].ID()},
		UpdateReq{Agent: "metric-mover", Node: c.nodes[1].ID()}); err == nil {
		t.Fatal("batch to a missing IAgent returned no error")
	}
	if got := okC.Value(); got != 1 {
		t.Errorf("batches_total{result=ok} = %d after a failed batch, want still 1", got)
	}
	if got := errC.Value(); got != 1 {
		t.Errorf("batches_total{result=error} = %d after a failed batch, want 1", got)
	}
}

// echoBatchCaller answers every update batch at once, acking each update with
// the version its agent id names ("u-<version>").
type echoBatchCaller struct{}

func (echoBatchCaller) LocalNode() platform.NodeID { return "node-0" }

func (e echoBatchCaller) Go(_ context.Context, _ platform.NodeID, _ ids.AgentID, kind string, req, resp any) transport.Pending {
	return transport.Settled(e.call(kind, req, resp))
}

func (echoBatchCaller) call(kind string, req, resp any) error {
	if kind != KindUpdateBatch {
		return fmt.Errorf("unexpected %s", kind)
	}
	out := resp.(*UpdateBatchResp)
	for _, u := range req.(UpdateBatchReq).Updates {
		v, err := strconv.ParseUint(strings.TrimPrefix(string(u.Agent), "u-"), 10, 64)
		if err != nil {
			return err
		}
		out.Acks = append(out.Acks, Ack{Status: StatusOK, HashVersion: v})
	}
	return nil
}

// TestUpdateBatcherCancelledDoNeverSeesAnotherAck: a Do that gives up on its
// ctx leaves its result channel to the flush that will still answer it, so a
// later Do — which may get a recycled channel — receives its own ack and
// never the abandoned one's, round after round.
func TestUpdateBatcherCancelledDoNeverSeesAnotherAck(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	cfg := quietConfig()
	cfg.Clock = fake
	const tick = 50 * time.Millisecond
	b := NewUpdateBatcher(echoBatchCaller{}, cfg, tick)
	defer func() {
		// A flush wedged on a channel two updates shared would hang Close.
		if !t.Failed() {
			b.Close()
		}
	}()
	assign := Assignment{IAgent: "iagent-1", Node: "node-0"}
	queued := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			b.mu.Lock()
			got := len(b.queues[batchKey{node: assign.Node, iagent: assign.IAgent}])
			b.mu.Unlock()
			if got == n && fake.PendingWaiters() >= 1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d updates queued", got, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx := testCtx(t)
	version := uint64(0)
	for round := 0; round < 20; round++ {
		// Two updates give up while queued.
		for i := 0; i < 2; i++ {
			version++
			cctx, cancel := context.WithCancel(ctx)
			done := make(chan error, 1)
			go func(v uint64) {
				_, err := b.Do(cctx, assign, UpdateReq{Agent: ids.AgentID(fmt.Sprintf("u-%d", v))})
				done <- err
			}(version)
			queued(i + 1)
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: a cancelled Do returned %v", round, err)
			}
		}
		// Then eight that wait for their acks, flushed in the same batch.
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			version++
			wg.Add(1)
			go func(v uint64) {
				defer wg.Done()
				ack, err := b.Do(wctx, assign, UpdateReq{Agent: ids.AgentID(fmt.Sprintf("u-%d", v))})
				if err != nil || ack.HashVersion != v {
					t.Errorf("round %d: the update of u-%d got ack %d, err %v", round, v, ack.HashVersion, err)
				}
			}(version)
		}
		queued(10)
		fake.Advance(tick)
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}
