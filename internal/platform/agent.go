package platform

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/snapshot"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// hosted is an agent instance resident at a node.
type hosted struct {
	id          ids.AgentID
	behavior    Behavior
	node        *Node
	serviceTime time.Duration

	mailbox *mailbox
	stopped atomic.Bool
	// plain is the Context of everything that carries no trace context: Run
	// goroutines and untraced requests share it instead of building one each.
	plain *Context

	// life is cancelled when the agent is stopped or about to move.
	life    context.Context
	cancel  context.CancelFunc
	boxDone chan struct{}
	runDone chan struct{} // closed when the Run goroutine exits; nil if not a Runner
}

func newHosted(id ids.AgentID, b Behavior, n *Node) *hosted {
	h := &hosted{
		id:       id,
		behavior: b,
		node:     n,
		mailbox:  newMailbox(),
		boxDone:  make(chan struct{}),
	}
	h.plain = &Context{host: h}
	h.life, h.cancel = context.WithCancel(context.Background())
	return h
}

// start launches the mailbox goroutine and, for Runner behaviours, the Run
// goroutine.
func (h *hosted) start(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.mailboxLoop()
	}()
	if runner, ok := h.behavior.(Runner); ok {
		h.runDone = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(h.runDone)
			// A Run error means the agent's active loop died; the agent
			// remains reachable through its mailbox, matching a mobile
			// agent whose autonomous behaviour ended.
			_ = runner.Run(h.plain)
		}()
	}
}

// contextFor builds the per-request Context, carrying the request's trace
// context so the behaviour's onward calls stay in the caller's causal tree.
func (h *hosted) contextFor(sc trace.SpanContext) *Context {
	if sc == (trace.SpanContext{}) {
		return h.plain
	}
	return &Context{host: h, span: sc}
}

// chargeServiceTime charges a request served outside the mailbox its service
// time on the calling goroutine, within ctx.
func (h *hosted) chargeServiceTime(ctx context.Context) error {
	if h.serviceTime <= 0 {
		return nil
	}
	select {
	case <-h.node.clk.After(h.serviceTime):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// gone builds the agent-not-found error for a request that reached a stopped
// or departing agent; why completes "<agent> <why> <node>".
func (h *hosted) gone(why string) error {
	return agentGone(fmt.Sprintf("%s %s %s", h.id, why, h.node.id))
}

// offer gives a request to the behaviour's HandleConcurrent and, if it is
// taken, answers it once its service time is charged, which only the agent's
// stop cuts short: the requester's deadline does not travel with the request.
// It reports false when the request is declined, or the agent is stopping,
// and left to the mailbox.
func (h *hosted) offer(cb ConcurrentBehavior, w *work) bool {
	if h.stopped.Load() {
		return false
	}
	body, handled, err := cb.HandleConcurrent(h.contextFor(w.span), w.kind, w.payload)
	if !handled {
		return false
	}
	h.node.fastRequests.Inc()
	_ = h.chargeServiceTime(h.life)
	w.answer(body, err)
	return true
}

// offerOrEnqueue is offer, on a goroutine of its own, for an agent with a
// service time; a declined request goes on to the mailbox from there.
func (h *hosted) offerOrEnqueue(cb ConcurrentBehavior, w work) {
	if !h.offer(cb, &w) {
		h.enqueue(w)
	}
}

// enqueue pushes a request onto the mailbox, or answers it at once when
// the agent has left.
func (h *hosted) enqueue(w work) {
	if !h.mailbox.push(w) {
		w.answer(nil, h.gone("left"))
	}
}

// mailboxLoop processes requests, and closures queued by Do, strictly
// serially, charging the service time per item.
func (h *hosted) mailboxLoop() {
	defer close(h.boxDone)
	for {
		w, ok := h.mailbox.pop()
		if !ok {
			return
		}
		if h.serviceTime > 0 {
			h.node.clk.Sleep(h.serviceTime)
		}
		if w.do != nil {
			w.do(h.behavior, h.plain)
			w.answer(nil, nil)
			continue
		}
		w.answer(h.behavior.HandleRequest(h.contextFor(w.span), w.kind, w.payload))
	}
}

// do queues f for the mailbox and waits for it (Node.Do). The mailbox, to run
// f, and do, to give it up as ctx ends, race to take it: first wins.
func (h *hosted) do(ctx context.Context, f func(Behavior, *Context)) error {
	var taken atomic.Bool
	done := make(chan error, 1)
	h.enqueue(work{done: done, do: func(b Behavior, c *Context) {
		if taken.CompareAndSwap(false, true) {
			f(b, c)
		}
	}})
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		if taken.CompareAndSwap(false, true) {
			return ctx.Err()
		}
		return <-done // f is running
	}
}

// signalStop marks the agent stopped, wakes everything selecting on Done,
// and closes the mailbox, failing the requests still queued. It reports
// false when the agent was already stopped. It does not wait: the request
// being processed, and a Run goroutine, finish on their own time.
func (h *hosted) signalStop(why string) bool {
	if !h.stopped.CompareAndSwap(false, true) {
		return false
	}
	h.cancel()
	for _, w := range h.mailbox.close() {
		w.answer(nil, h.gone(why))
	}
	return true
}

// stopAndWait shuts the agent down: the mailbox closes (pending requests
// are failed), and both goroutines are awaited.
func (h *hosted) stopAndWait() {
	h.signalStop("stopped at")
	<-h.boxDone
	if h.runDone != nil {
		<-h.runDone
	}
}

// detachForMove is stopAndWait for the migration path: it is invoked from
// the agent's own Run goroutine, so it must not wait for runDone.
func (h *hosted) detachForMove() {
	if h.signalStop("moving from") {
		<-h.boxDone
	}
}

// Context is the platform interface handed to behaviour callbacks. It is
// valid only while the agent is hosted. Contexts built for a request carry
// that request's trace context; Run-goroutine contexts carry none.
type Context struct {
	host *hosted
	span trace.SpanContext
}

// Self returns the agent's own id.
func (c *Context) Self() ids.AgentID { return c.host.id }

// Node returns the id of the node currently hosting the agent.
func (c *Context) Node() NodeID { return c.host.node.id }

// Residence returns the hosting node's canonical residence handle; a
// co-resident agent joins it to ride node-level group moves.
func (c *Context) Residence() ids.ResidenceID { return c.host.node.residence }

// Clock returns the hosting node's clock.
func (c *Context) Clock() clock.Clock { return c.host.node.clk }

// Emit records a high-level event in the hosting node's trace log (a no-op
// when the node has no log).
func (c *Context) Emit(kind, detail string) {
	c.host.node.trace.Emit(string(c.host.id), kind, detail)
}

// Metrics returns the hosting node's metrics registry; nil (still safe to
// use) when the node has none.
func (c *Context) Metrics() *metrics.Registry { return c.host.node.reg }

// Tracer returns the hosting node's span recorder; nil (still safe to use)
// when the node records no spans.
func (c *Context) Tracer() *trace.Recorder { return c.host.node.tracer }

// Durable returns the hosting node's snapshot/WAL store, or nil when the
// node runs without durability. The store belongs to the node, not the
// agent: a behaviour that migrates writes to its new host's store.
func (c *Context) Durable() *snapshot.Store { return c.host.node.durable }

// StartSpan opens a child span of the request being served. It returns nil
// (safe to use) when the request is untraced or the node has no recorder.
func (c *Context) StartSpan(tier, name string) *trace.ActiveSpan {
	return c.host.node.tracer.StartSpan(c.span, tier, name)
}

// Done returns a channel closed when the agent is being stopped or is
// about to move; Run loops select on it.
func (c *Context) Done() <-chan struct{} { return c.host.life.Done() }

// Lifetime returns a context cancelled when the agent is being stopped or is
// about to move. Background work — a Run loop's heartbeats, checkpoints and
// other calls nobody is waiting on — derives its call deadlines from it, so
// stopping the agent abandons them instead of waiting out their timeouts.
func (c *Context) Lifetime() context.Context { return c.host.life }

// Sleep blocks for d on the node's clock, returning early with false if
// the agent is stopped.
func (c *Context) Sleep(d time.Duration) bool {
	select {
	case <-c.host.node.clk.After(d):
		return true
	case <-c.host.life.Done():
		return false
	}
}

// Call sends a request to another agent and waits for its response. The
// serving request's trace context rides along (unless ctx already carries
// one), so multi-hop chains stay in one causal tree.
func (c *Context) Call(ctx context.Context, at NodeID, agent ids.AgentID, kind string, req, resp any) error {
	return c.Go(ctx, at, agent, kind, req, resp).Wait()
}

// Go is Call split in two, as Node.Go splits Node.CallAgent.
func (c *Context) Go(ctx context.Context, at NodeID, agent ids.AgentID, kind string, req, resp any) transport.Pending {
	ctx = trace.ContextEnsure(ctx, c.span)
	return c.host.node.Go(ctx, at, agent, kind, req, resp)
}

// LaunchAt creates a new agent on the target node (agents beget agents —
// how the HAgent creates IAgents). The behaviour must be registered with
// RegisterBehavior.
func (c *Context) LaunchAt(ctx context.Context, at NodeID, id ids.AgentID, b Behavior, serviceTime time.Duration) error {
	return c.host.node.LaunchAt(ctx, at, id, b, serviceTime)
}

// Move migrates the agent to the target node: its behaviour state is
// serialized, shipped, and relaunched there. Move may only be called from
// the agent's Run goroutine, which must return promptly after a successful
// Move. Requests arriving during the hand-over fail with an
// agent-not-found error, exactly as on a real platform while an agent is
// in transit.
func (c *Context) Move(ctx context.Context, target NodeID) error {
	h := c.host
	if _, ok := h.behavior.(Runner); !ok {
		return ErrNotRunner
	}
	if target == h.node.id {
		return nil
	}

	// Stop accepting and finish in-flight work first, so the serialized
	// state is quiescent.
	h.detachForMove()

	n := h.node
	n.mu.Lock()
	delete(n.agents, h.id)
	n.mu.Unlock()
	n.hostedGauge.Dec()

	xfer := agentTransfer{Agent: h.id, ServiceTimeNS: int64(h.serviceTime), Behavior: behaviorBox{B: h.behavior}}
	if err := n.peer.Call(ctx, target.Addr(), kindAgentTransfer, xfer, nil); err != nil {
		// The agent is gone locally and did not arrive remotely: relaunch
		// it here rather than losing it (a platform would retry the
		// dispatch; relaunching locally is the simplest safe recovery).
		if rerr := n.Launch(h.id, h.behavior, WithServiceTime(h.serviceTime)); rerr != nil && !errors.Is(rerr, ErrNodeClosed) {
			return fmt.Errorf("move %s to %s failed (%v) and relaunch failed: %w", h.id, target, err, rerr)
		}
		return fmt.Errorf("move %s to %s: %w", h.id, target, err)
	}
	n.migrations.Inc()
	return nil
}

// Do is Node.Do on the agent's own mailbox, for its Run goroutine.
func (c *Context) Do(ctx context.Context, f func(Behavior, *Context)) error {
	return c.host.do(ctx, f)
}

// Dispose permanently removes the agent from its node. Like Move it is
// intended for Run goroutines; a behaviour's HandleRequest must not call
// it (it would deadlock waiting for its own mailbox).
func (c *Context) Dispose() {
	h := c.host
	n := h.node
	n.mu.Lock()
	_, present := n.agents[h.id]
	delete(n.agents, h.id)
	n.mu.Unlock()
	if present {
		n.hostedGauge.Dec()
	}
	h.detachForMove()
}

// work is one request for the mailbox, with its trace context, the Replier
// its answer goes to and its server span, ended as the answer is given. It
// owns its payload: a copy of the frame, taken from the pool into buf when it
// is small. A closure Do queued is work with only do, and done for its
// answer, set.
type work struct {
	kind    string
	payload []byte
	span    trace.SpanContext

	reply transport.Replier
	sp    *trace.ActiveSpan
	buf   *[]byte

	do   func(Behavior, *Context)
	done chan error
}

// maxPooledFrame bounds the frame copy a queued request takes from the pool:
// a bigger one — a checkpoint chunk, a bulk-load batch — gets a buffer of its
// own instead of sitting in the pool after it.
const maxPooledFrame = 64 << 10

// ownFrame copies the payload, which the handler is lent only until it
// returns, into memory the request owns.
func (w *work) ownFrame() {
	switch {
	case len(w.payload) == 0:
	case len(w.payload) > maxPooledFrame:
		w.payload = bytes.Clone(w.payload)
	default:
		w.buf = wire.GetBuf()
		*w.buf = append(*w.buf, w.payload...)
		w.payload = *w.buf
	}
}

// answer ends the request's span and gives its answer through its Replier —
// encoded before Reply returns, so the frame copy can go back to the pool
// then.
func (w *work) answer(body any, err error) {
	if w.done != nil {
		w.done <- err
		return
	}
	w.sp.End(err)
	w.reply.Reply(body, err)
	if w.buf != nil && cap(*w.buf) <= maxPooledFrame {
		wire.PutBuf(w.buf)
	}
}

// mailbox is an unbounded FIFO queue. Unboundedness is deliberate: the
// experiments measure queueing delay at overloaded agents, so the queue
// must be able to grow — exactly like the message queue of an Aglets
// agent. It is a ring: items[head] is the oldest of n queued requests, and a
// popped slot is cleared at once, so it holds no payload or result channel
// past its request, and a queue that drains keeps its space.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []work
	head   int
	n      int
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues w, reporting false if the mailbox is closed.
func (m *mailbox) push(w work) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.n == len(m.items) {
		m.items = m.queued(max(2*m.n, 4))
		m.head = 0
	}
	m.items[(m.head+m.n)%len(m.items)] = w
	m.n++
	m.cond.Signal()
	return true
}

// pop dequeues the next item, blocking while the mailbox is empty. It
// returns false once the mailbox is closed.
func (m *mailbox) pop() (work, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.n == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.n == 0 {
		return work{}, false
	}
	w := m.items[m.head]
	m.items[m.head] = work{}
	m.head = (m.head + 1) % len(m.items)
	m.n--
	return w, true
}

// queued copies the queued items, oldest first, into a new slice of length
// size ≥ n. Caller holds mu.
func (m *mailbox) queued(size int) []work {
	out := make([]work, size)
	k := copy(out, m.items[m.head:min(m.head+m.n, len(m.items))])
	copy(out[k:m.n], m.items)
	return out
}

// close shuts the mailbox and returns the undelivered items.
func (m *mailbox) close() []work {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	pending := m.queued(m.n)
	m.items, m.head, m.n = nil, 0, 0
	m.cond.Broadcast()
	return pending
}

// Len reports the queue length (diagnostics and tests).
func (m *mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}
