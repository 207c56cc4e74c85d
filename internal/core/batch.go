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
)

// ErrBatcherClosed is returned by Do after Close.
var ErrBatcherClosed = errors.New("core: update batcher closed")

// UpdateBatcher coalesces move-update traffic: updates bound for the same
// IAgent travel as one KindUpdateBatch RPC instead of one RPC each. Heavy
// TAgent churn against a hot leaf is mostly identical small messages to the
// same peer — batching them trades a bounded extra latency for an N-fold drop
// in RPC count.
//
// Each destination — an IAgent at a node — has a queue of its own, shipped by
// a sender goroutine of its own: one batch in flight at a time, and batches at
// least one tick apart, so there is at most one RPC per peer per tick. An idle
// destination's first update waits at most one tick; a busy one's waits for
// the batch in flight and what is left of the tick. No destination waits for
// another, so a stalled leaf holds up only its own updates. A queue and its
// sender go once the queue drains: a retired IAgent leaves nothing behind.
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
	queues map[batchKey]*batchQueue
	closed bool

	stop    chan struct{} // closed by Close: senders stop waiting out ticks
	senders sync.WaitGroup
}

// batchKey identifies one destination peer: an IAgent at a node.
type batchKey struct {
	node   platform.NodeID
	iagent ids.AgentID
}

// batchQueue is one destination's: the updates queued for its next batch and
// what its sender reuses from batch to batch.
type batchQueue struct {
	key    batchKey
	queued []pendingUpdate // guarded by UpdateBatcher.mu

	// The sender's own: the batch in flight, its request and its response.
	batch []pendingUpdate
	req   UpdateBatchReq
	resp  UpdateBatchResp
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
// leaves its channel to the sender's one send, and to the collector.
var resultPool = sync.Pool{New: func() any { return make(chan batchResult, 1) }}

// NewUpdateBatcher returns a batcher whose destinations send at most one
// batch per tick. A tick of zero selects 5ms — small enough to stay well under
// typical residence times, large enough to coalesce a busy node's worth of
// updates.
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
		queues: make(map[batchKey]*batchQueue),
		stop:   make(chan struct{}),
	}
	if reg := CallerRegistry(caller); reg != nil {
		reg.Describe("agentloc_core_update_batches_total", "Coalesced update batch RPCs flushed, by result.")
		reg.Describe("agentloc_core_update_batched_total", "Individual updates carried inside batches.")
		b.batchesOK = reg.Counter("agentloc_core_update_batches_total", "result", "ok")
		b.batchesErr = reg.Counter("agentloc_core_update_batches_total", "result", "error")
		b.coal = reg.Counter("agentloc_core_update_batched_total")
	}
	return b
}

// Do submits one update — residence binding included, batches carry full
// UpdateReqs — and blocks until its individual ack arrives with its
// destination's next batch, the context expires, or the batcher closes.
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
	q := b.queues[key]
	if q == nil {
		q = &batchQueue{key: key}
		b.queues[key] = q
		b.senders.Add(1)
		go b.send(q)
	}
	q.queued = append(q.queued, p)
	b.mu.Unlock()

	select {
	case r := <-p.result:
		resultPool.Put(p.result)
		return r.ack, r.err
	case <-ctx.Done():
		// The sender still owns the entry and will write the (now unread)
		// buffered result; the caller just stops waiting.
		return Ack{}, ctx.Err()
	}
}

// Close stops the batcher once every destination's queue is delivered:
// queued entries are still sent, without waiting out their tick.
func (b *UpdateBatcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.stop)
	}
	b.mu.Unlock()
	b.senders.Wait()
}

// send is q's sender. It ships q's queue one batch at a time, the first one
// tick after the queue opened and each later one a tick after the one before
// it left, or as soon as its predecessor is answered if that took longer.
// Finding the queue empty, it takes the queue out and ends; the next update to
// the destination opens another.
func (b *UpdateBatcher) send(q *batchQueue) {
	defer b.senders.Done()
	next := b.clk.Now().Add(b.tick)
	for {
		if wait := next.Sub(b.clk.Now()); wait > 0 {
			select {
			case <-b.clk.After(wait):
			case <-b.stop:
			}
		}
		b.mu.Lock()
		q.batch, q.queued = q.queued, q.batch[:0]
		if len(q.batch) == 0 {
			delete(b.queues, q.key)
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		next = b.clk.Now().Add(b.tick)
		b.flush(q)
	}
}

// flush sends q's batch as one KindUpdateBatch RPC and fans the per-entry
// acks back out. The deadline — callTimeout, set or not — keeps a stalled
// peer from wedging the sender, and with it Close, forever; it holds up no
// other destination's batch.
func (b *UpdateBatcher) flush(q *batchQueue) {
	q.req.Updates = q.req.Updates[:0]
	for _, p := range q.batch {
		q.req.Updates = append(q.req.Updates, p.req)
	}
	q.resp.Acks = q.resp.Acks[:0]
	ctx := context.Background()
	// The flush runs on the sender's goroutine, outside any one caller's
	// trace, so each batch records as a root control span.
	sp := b.tracer.StartRoot("control", "batch.flush")
	if sp != nil {
		sp.Annotate("dest", string(q.key.iagent))
		sp.Annotate("entries", strconv.Itoa(len(q.batch)))
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	err := callWithin(ctx, b.cfg.callTimeout(), b.caller, q.key.node, q.key.iagent, KindUpdateBatch, q.req, &q.resp)
	sp.End(err)
	b.ack(q.batch, q.resp, err)
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
