package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// ErrBatcherClosed is returned by Do after Close.
var ErrBatcherClosed = errors.New("core: update batcher closed")

// UpdateBatcher coalesces move-update traffic: updates bound for the same
// IAgent within one flush tick travel as a single KindUpdateBatch RPC
// instead of one RPC each. Heavy TAgent churn against a hot leaf is mostly
// identical small messages to the same peer — batching them trades a bounded
// extra latency (at most one tick) for an N-fold drop in RPC count.
//
// Each entry is acked individually, so the §4.3 refresh-and-retry contract
// is untouched: a stale entry's NotResponsible ack sends only that caller
// back through its retry loop. A failed batch RPC fails every entry in it —
// callers retry exactly as they would a failed single update.
//
// Use one batcher per process (or per node) and attach it to clients with
// Client.WithBatcher; Do is safe for concurrent use.
type UpdateBatcher struct {
	caller Caller
	cfg    Config
	clk    clock.Clock
	tick   time.Duration

	batchesOK  *metrics.Counter
	batchesErr *metrics.Counter
	coal       *metrics.Counter
	tracer     *trace.Recorder

	mu     sync.Mutex
	queues map[batchKey][]pendingUpdate
	closed bool

	stop chan struct{}
	done chan struct{}
}

// batchKey identifies one destination peer: an IAgent at a node.
type batchKey struct {
	node   platform.NodeID
	iagent ids.AgentID
}

type pendingUpdate struct {
	req    UpdateReq
	result chan batchResult
}

type batchResult struct {
	ack Ack
	err error
}

// resultPool recycles the one-slot channels updates get their acks on. A
// channel goes back only once its caller has received from it, so it is
// empty and nothing else will send on it; a caller that gave up on its ctx
// leaves its channel to the flush goroutine's one send, and to the collector.
var resultPool = sync.Pool{New: func() any { return make(chan batchResult, 1) }}

// NewUpdateBatcher starts a batcher flushing every tick. A tick of zero
// selects 5ms — small enough to stay well under typical residence times,
// large enough to coalesce a busy node's worth of updates.
func NewUpdateBatcher(caller Caller, cfg Config, tick time.Duration) *UpdateBatcher {
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	b := &UpdateBatcher{
		caller: caller,
		cfg:    cfg,
		clk:    clk,
		tick:   tick,
		tracer: CallerTracer(caller),
		queues: make(map[batchKey][]pendingUpdate),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if reg := CallerRegistry(caller); reg != nil {
		reg.Describe("agentloc_core_update_batches_total", "Coalesced update batch RPCs flushed, by result.")
		reg.Describe("agentloc_core_update_batched_total", "Individual updates carried inside batches.")
		b.batchesOK = reg.Counter("agentloc_core_update_batches_total", "result", "ok")
		b.batchesErr = reg.Counter("agentloc_core_update_batches_total", "result", "error")
		b.coal = reg.Counter("agentloc_core_update_batched_total")
	}
	go b.flushLoop()
	return b
}

// Do submits one update — residence binding included, batches carry full
// UpdateReqs — and blocks until its individual ack arrives with the next
// flush, the context expires, or the batcher closes.
func (b *UpdateBatcher) Do(ctx context.Context, assign Assignment, req UpdateReq) (Ack, error) {
	p := pendingUpdate{
		req:    req,
		result: resultPool.Get().(chan batchResult),
	}
	key := batchKey{node: assign.Node, iagent: assign.IAgent}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		resultPool.Put(p.result)
		return Ack{}, ErrBatcherClosed
	}
	b.queues[key] = append(b.queues[key], p)
	b.mu.Unlock()

	select {
	case r := <-p.result:
		resultPool.Put(p.result)
		return r.ack, r.err
	case <-ctx.Done():
		// The flush goroutine still owns the entry and will write the
		// (now unread) buffered result; the caller just stops waiting.
		return Ack{}, ctx.Err()
	}
}

// Close stops the flush loop after a final flush; queued entries are still
// delivered.
func (b *UpdateBatcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}

// flushLoop drains every destination's queue once per tick, one RPC per
// destination.
func (b *UpdateBatcher) flushLoop() {
	defer close(b.done)
	for {
		select {
		case <-b.clk.After(b.tick):
			b.flush()
		case <-b.stop:
			b.flush() // deliver what is queued before exiting
			return
		}
	}
}

// flush sends one KindUpdateBatch RPC per destination with queued entries,
// all as one fan-out, and fans each destination's per-entry acks back out as
// its reply lands: a stalled IAgent costs only its own batch the deadline
// instead of head-of-line blocking every other peer's batch for the tick, and
// the deadline — callTimeout, set or not — keeps a stalled peer from wedging
// the flush loop, and with it Close, forever.
func (b *UpdateBatcher) flush() {
	b.mu.Lock()
	queues := b.queues
	b.queues = make(map[batchKey][]pendingUpdate)
	b.mu.Unlock()
	if len(queues) == 0 {
		return
	}

	keys := make([]batchKey, 0, len(queues))
	for key := range queues {
		keys = append(keys, key)
	}
	resps := make([]UpdateBatchResp, len(keys))
	spans := make([]*trace.ActiveSpan, len(keys))
	fanOut(context.Background(), b.cfg.callTimeout(), b.caller.LocalNode(), len(keys),
		func(i int) platform.NodeID { return keys[i].node },
		func(ctx context.Context, i int) transport.Pending {
			key, pending := keys[i], queues[keys[i]]
			req := UpdateBatchReq{Updates: make([]UpdateReq, len(pending))}
			for j, p := range pending {
				req.Updates[j] = p.req
			}
			// The flush runs on the batcher's own goroutine, outside any one
			// caller's trace, so each batch records as a root control span.
			if sp := b.tracer.StartRoot("control", "batch.flush"); sp != nil {
				sp.Annotate("dest", string(key.iagent))
				sp.Annotate("entries", strconv.Itoa(len(pending)))
				ctx = trace.ContextWith(ctx, sp.Context())
				spans[i] = sp
			}
			return b.caller.Go(ctx, key.node, key.iagent, KindUpdateBatch, req, &resps[i])
		},
		func(i int, err error) {
			spans[i].End(err)
			b.ack(queues[keys[i]], resps[i], err)
		})
}

// ack fans one destination's batch outcome back out to its entries.
func (b *UpdateBatcher) ack(pending []pendingUpdate, resp UpdateBatchResp, err error) {
	// Only successful batch RPCs count as flushed; failures are tallied
	// separately so the ok series stays an honest delivery count.
	if err != nil {
		b.batchesErr.Inc()
	} else {
		b.batchesOK.Inc()
	}
	b.coal.Add(uint64(len(pending)))
	for i, p := range pending {
		switch {
		case err != nil:
			p.result <- batchResult{err: err}
		case i >= len(resp.Acks):
			p.result <- batchResult{err: fmt.Errorf("core: batch ack missing entry %d of %d", i, len(pending))}
		default:
			p.result <- batchResult{ack: resp.Acks[i]}
		}
	}
}

// WithBatcher routes this client's MoveNotify traffic through the batcher.
// Returns the client for chaining.
func (c *Client) WithBatcher(b *UpdateBatcher) *Client {
	c.batcher = b
	return c
}
