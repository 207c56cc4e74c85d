package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"agentloc/internal/metrics"
	"agentloc/internal/trace"
	"agentloc/internal/wire"
)

// RequestHandler processes one inbound request and returns the response
// body (any gob-encodable value, or nil for an empty response). ctx carries
// the envelope's trace context (trace.FromContext) so handlers can parent
// their spans under the caller's. Each request runs on a goroutine of its
// own, so a handler may block and may issue Calls.
type RequestHandler func(ctx context.Context, from Addr, kind string, payload []byte) (any, error)

// InlineHandler serves every request that reaches a Peer, with the agent it
// names (empty for a request to the endpoint itself) and its kind. It runs on
// the goroutine that read the request off the connection or, for a call the
// peer makes to its own address, on the caller's goroutine, and it must
// neither block nor call out: until it returns nothing else arrives from that
// peer, the replies to its own calls included. It answers the request through
// r exactly once: before it returns, or later from any goroutine (Replier) —
// what has to block or call out first goes to a goroutine or a queue of the
// handler's choosing. payload is valid only until it returns, so a request
// kept for later keeps a copy.
type InlineHandler func(ctx context.Context, r Replier, agent, kind string, payload []byte)

// Replier answers one request an InlineHandler was handed. It holds the
// request's place in Peer.Close's wait until Reply, which must be called
// exactly once.
type Replier struct {
	p    *Peer
	to   Addr
	kind string
	corr uint64
	// via is the connection the request came in on, which its reply goes
	// back on (Envelope.via).
	via *tcpConn
	// self marks a call the peer made to its own address: its answer goes
	// straight to the call's slot, not onto the link, and, with discard set,
	// the call wants no response, so a body is not even encoded.
	self, discard bool
}

// Reply answers the request — body, or err when it is non-nil — and releases
// it: it queues the reply for the requester's connection (Peer.reply) or, for
// a call the peer made to itself, completes the call (Peer.answer). It waits
// for no socket, so it is safe on a read loop.
func (r Replier) Reply(body any, err error) {
	if r.self {
		if r.discard {
			body = nil
		}
		r.p.answer(r.corr, body, err)
	} else {
		r.p.reply(r, body, err)
	}
	r.p.wg.Done()
}

// Peer is a request/response endpoint over a Link. One Peer serves one
// address; it matches replies to outstanding calls by correlation id and
// surfaces remote handler failures as *RemoteError.
type Peer struct {
	link   Link
	addr   Addr
	inline InlineHandler
	reg    *metrics.Registry

	mu       sync.Mutex
	nextCorr uint64
	pending  map[uint64]*callSlot
	closed   bool

	wg sync.WaitGroup
}

// callSlot is where one outstanding call waits, from Go to Wait. Slots are
// pooled; what keeps a recycled slot from hearing its previous call's late
// reply is that results are written under Peer.mu to the slot pending[corr]
// names, and a call takes its entry out of pending before its slot goes back
// to the pool.
type callSlot struct {
	done  chan struct{} // capacity 1: signalled once the result is in
	timer *time.Timer   // stopped between calls
	// buf is the slot's reply buffer: a reply the link lent out of its read
	// buffer, or the answer to a call to the peer's own address, is copied
	// here, under Peer.mu as it is delivered, and decoded from here by Wait.
	// The next call through the slot reuses it, so no response may keep a
	// view of it (Decode).
	buf []byte
	// conn, guarded by Peer.mu while the slot is in pending, is the
	// connection the request was written to, once it has been.
	conn *tcpConn
	// landed, guarded by Peer.mu while the slot is in pending, hears idx
	// when the result is delivered: the channel of the Reap waiting for it.
	landed chan<- int
	idx    int

	// The result, written under Peer.mu by whoever takes the slot out of
	// pending, before done is signalled, and read by Wait after it: why no
	// reply will come, or the reply's remote error or payload — buf, or a
	// payload the link encoded for this call alone.
	err    error
	errMsg string
	reply  []byte

	// The call itself, written by Go and read by Wait, both on the caller's
	// goroutine, and cleared before the slot goes back to the pool.
	p     *Peer
	ctx   context.Context
	to    Addr
	kind  string
	resp  any
	corr  uint64
	start time.Time
}

var slotPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &callSlot{done: make(chan struct{}, 1), timer: t}
}}

// NewPeer binds a Peer to addr on the link. The handler serves inbound
// requests, whatever agent they name, each on a goroutine of its own with a
// copy of its payload; it may be nil for call-only peers.
func NewPeer(link Link, addr Addr, h RequestHandler) (*Peer, error) {
	var inline InlineHandler
	if h != nil {
		inline = func(ctx context.Context, r Replier, _, kind string, payload []byte) {
			payload = bytes.Clone(payload)
			go func() { r.Reply(h(ctx, r.to, kind, payload)) }()
		}
	}
	return NewServingPeer(link, addr, inline, nil)
}

// NewServingPeer binds a Peer whose requests h serves (nil: every request is
// answered with an error) and instruments its calls to other addresses:
// completed calls observe agentloc_transport_rpc_latency_seconds{kind} and
// calls abandoned on context expiry count into
// agentloc_transport_rpc_timeouts_total{kind}. A nil registry yields an
// uninstrumented peer.
func NewServingPeer(link Link, addr Addr, h InlineHandler, reg *metrics.Registry) (*Peer, error) {
	describeTransportMetrics(reg)
	if h == nil {
		h = func(_ context.Context, r Replier, _, _ string, _ []byte) {
			r.Reply(nil, fmt.Errorf("no handler at %s", addr))
		}
	}
	p := &Peer{
		link:    link,
		addr:    addr,
		inline:  h,
		reg:     reg,
		pending: make(map[uint64]*callSlot),
	}
	if err := link.listen(addr, p); err != nil {
		return nil, fmt.Errorf("peer %s: %w", addr, err)
	}
	return p, nil
}

// Addr returns the peer's own address.
func (p *Peer) Addr() Addr { return p.addr }

// Outstanding reports how many calls are waiting for a reply (diagnostics
// and tests): a call counts from Go until its reply arrives or its Wait gives
// up on it.
func (p *Peer) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Call sends a request to the endpoint at to and waits for the reply, a send
// failure or the end of ctx, whichever comes first. req and resp are encoded
// and decoded in the codec their type selects (see Encode); either may be nil.
// A remote handler error is returned as *RemoteError.
func (p *Peer) Call(ctx context.Context, to Addr, kind string, req, resp any) error {
	return p.Go(ctx, to, "", kind, req, resp).Wait()
}

// Pending is a call Go has posted and Wait has yet to collect. It holds a
// pooled call slot and the pending entry of its correlation id until Wait, so
// every Pending is waited exactly once — by its caller or by Reap; a copy
// shares the slot and must not be waited as well.
type Pending struct {
	s   *callSlot // nil when the call ended before it was posted
	err error     // why the post failed, or the settled outcome when s is nil
}

// Settled returns a Pending whose Wait returns err at once: the outcome of a
// call answered before it reached a Peer, or one that could not start.
func Settled(err error) Pending { return Pending{err: err} }

// Go starts a call: it registers the call and posts the request — one
// envelope that names agent, empty for the endpoint itself, and carries req as
// its payload — and returns without waiting for the reply, which the returned
// Pending's Wait collects. ctx bounds both. A caller with several calls to make
// posts them all before waiting for any (Reap), so they are in flight together
// without a goroutine each.
//
// A call to the peer's own address never reaches the link: req is encoded
// into a pooled buffer and handed to the peer's own handler on the caller's
// goroutine (serveSelf), and its Replier completes the call. It adds no hop,
// moves no transport counter and records no RPC latency or timeout.
func (p *Peer) Go(ctx context.Context, to Addr, agent, kind string, req, resp any) Pending {
	s := slotPool.Get().(*callSlot)
	self := to == p.addr
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		slotPool.Put(s)
		return Settled(ErrClosed)
	}
	p.nextCorr++
	corr := p.nextCorr
	s.conn = nil
	p.pending[corr] = s
	if self {
		p.wg.Add(1)
	}
	p.mu.Unlock()

	s.p, s.ctx, s.to, s.kind, s.resp, s.corr = p, ctx, to, kind, resp, corr
	sc := trace.FromContext(ctx)
	if self {
		r := Replier{p: p, to: to, kind: kind, corr: corr, self: true, discard: resp == nil}
		return Pending{s: s, err: p.serveSelf(sc, r, agent, req)}
	}
	env := Envelope{From: p.addr, To: to, Agent: agent, Kind: kind, Corr: corr}
	// Stamp the caller's trace context onto the wire, charging one network
	// hop. The receiver parents its spans under env.Trace.SpanID.
	if sc.Valid() {
		sc.Hop++
		env.Trace = sc
	}
	if p.reg != nil {
		s.start = time.Now()
	}
	return Pending{s: s, err: p.link.post(ctx, env, req, p)}
}

// serveSelf hands the request of a call the peer makes to itself to its
// handler, with r to answer it. The payload is a pooled buffer, the handler's
// until it returns; a request that cannot be encoded fails the call, as post
// would.
func (p *Peer) serveSelf(sc trace.SpanContext, r Replier, agent string, req any) error {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	var err error
	if *buf, err = AppendV(*buf, req, wire.MsgVersion); err != nil {
		p.wg.Done()
		return &encodeError{err}
	}
	p.inline(handlerContext(sc), r, agent, r.kind, *buf)
	return nil
}

// Wait finishes the call Go started: it waits for the reply, a send failure
// or the end of Go's ctx, decodes the reply into Go's resp and gives the call
// slot back.
func (c Pending) Wait() error {
	s := c.s
	if s == nil {
		return c.err
	}
	err := s.finish(c.err)
	s.p, s.ctx, s.resp, s.landed = nil, nil, nil, nil
	s.err, s.errMsg, s.reply = nil, "", nil
	if cap(s.buf) > maxSlotBuf {
		s.buf = nil
	}
	slotPool.Put(s)
	return err
}

// maxSlotBuf bounds the reply buffer a pooled slot keeps: a rare large reply,
// such as a hash state, is not worth holding on to.
const maxSlotBuf = 64 << 10

// finish is Wait on a slot that is still the call's: posted with err as the
// post's outcome.
func (s *callSlot) finish(err error) error {
	p, ctx, to, kind, resp, start := s.p, s.ctx, s.to, s.kind, s.resp, s.start
	reg := p.reg
	if to == p.addr {
		reg = nil // a call to ourselves is not an RPC
	}
	if err == nil {
		err = s.await(ctx)
	}
	if err != nil {
		// Nobody delivered: the entry is still ours to remove. A result that
		// raced the removal was signalled under p.mu before it, so the drain
		// below sees it and the slot goes back empty (Wait clears the result).
		p.mu.Lock()
		delete(p.pending, s.corr)
		p.mu.Unlock()
		select {
		case <-s.done:
		default:
		}
	}
	if err == nil {
		err = s.err
	} else if ctx.Err() != nil {
		reg.Counter(metricRPCTmo, "kind", kind).Inc()
	}
	if err != nil {
		return fmt.Errorf("call %s %s: %w", to, kind, err)
	}
	if reg != nil {
		// Remote errors still complete the round trip, so they count
		// toward latency; only abandoned calls are excluded.
		reg.Histogram(metricRPCLat, metrics.DefLatencyBuckets, "kind", kind).
			ObserveDuration(time.Since(start))
	}
	if s.errMsg != "" {
		return &RemoteError{Kind: kind, To: to, Msg: s.errMsg}
	}
	if resp == nil {
		return nil
	}
	if err = Decode(s.reply, resp); err != nil {
		return fmt.Errorf("call %s %s: decode: %w", to, kind, err)
	}
	return nil
}

// await blocks until the slot's result arrives or ctx ends, on the slot's own
// timer (see WaitChans). A result that is already there wins over an expiry
// that is too: a Reap whose deadline passed waits for every call still out
// then, and a reply that came in before it got to that call still counts.
func (s *callSlot) await(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	default:
	}
	done, expired := WaitChans(ctx, s.timer)
	if expired != nil {
		defer s.timer.Stop()
	}
	select {
	case <-s.done:
		return nil
	case <-done:
		return ctx.Err()
	case <-expired:
		return context.DeadlineExceeded
	}
}

// Reap waits for calls posted under ctx, or contexts derived from it, and
// hands each to land with its Wait's outcome as it lands: a Settled call, one
// whose post failed and one already answered at once, the others as their
// replies arrive, so a slow call delays none of the rest. When ctx ends first,
// every call still out is waited then, ending with the answer already in its
// slot or with ctx's error. Every call is waited exactly once, on the caller's
// goroutine.
func Reap(ctx context.Context, calls []Pending, land func(i int, err error)) {
	r := reaperPool.Get().(*reaper)
	if cap(r.landed) < len(calls) {
		r.landed = make(chan int, len(calls))
	}
	r.reaped = slices.Grow(r.reaped[:0], len(calls))[:len(calls)]
	clear(r.reaped)
	for i, c := range calls {
		if !c.watch(r.landed, i) {
			r.landed <- i
		}
	}
	reap := func(i int) {
		r.reaped[i] = true
		land(i, calls[i].Wait())
	}
	done, expired := WaitChans(ctx, r.timer)
wait:
	for range calls {
		select {
		case i := <-r.landed:
			reap(i)
		case <-done:
			break wait
		case <-expired:
			break wait
		}
	}
	if expired != nil {
		r.timer.Stop()
	}
	for i, ok := range r.reaped {
		if !ok {
			reap(i)
		}
	}
	for len(r.landed) > 0 { // calls answered after ctx ended told it too
		<-r.landed
	}
	reaperPool.Put(r)
}

// reaper is a Reap's pooled scratch space: the channel its calls' slots tell,
// sized to take one send from each, which calls have been waited, and the
// timer for ctx's deadline.
type reaper struct {
	landed chan int
	reaped []bool
	timer  *time.Timer
}

var reaperPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &reaper{timer: t}
}}

// watch has the call's slot tell landed i when its result is delivered, or
// reports false: the call is settled, its post failed or its result is in.
func (c Pending) watch(landed chan<- int, i int) bool {
	s := c.s
	if s == nil || c.err != nil {
		return false
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.p.pending[s.corr] != s {
		return false
	}
	s.landed, s.idx = landed, i
	return true
}

// complete hands the call waiting under corr its reply — the remote error
// errMsg, or payload; a call that already ended — answered, failed or given up
// — is not there any more, and the reply is dropped. A borrowed payload, valid
// only until complete returns, is copied into the slot's reply buffer.
func (p *Peer) complete(corr uint64, errMsg string, payload []byte, borrowed bool) {
	p.mu.Lock()
	if s := p.pending[corr]; s != nil {
		delete(p.pending, corr)
		if borrowed {
			s.buf = append(s.buf[:0], payload...)
			payload = s.buf
		}
		s.errMsg, s.reply = errMsg, payload
		s.settle(nil)
	}
	p.mu.Unlock()
}

// settle ends the slot's call — with err when no reply will come — and
// signals done, telling a Reap first, so nothing is sent to its channel once
// the result can be read. The caller holds Peer.mu, has taken the slot out of
// pending and has written any reply into it.
func (s *callSlot) settle(err error) {
	s.err = err
	if s.landed != nil {
		s.landed <- s.idx
	}
	s.done <- struct{}{}
}

// sendDone implements sendWaiter: a request that could not be written fails
// its call at once, with the link's error; one that was written remembers on
// which connection, for connLost.
func (p *Peer) sendDone(corr uint64, on *tcpConn, err error) {
	if err == nil && on == nil {
		return
	}
	p.mu.Lock()
	if s := p.pending[corr]; s != nil {
		if err != nil {
			delete(p.pending, corr)
			s.settle(err)
		} else {
			s.conn = on
		}
	}
	p.mu.Unlock()
}

// connLost implements endpoint: calls whose requests were written to the dead
// connection fail now instead of at their deadlines. Requests still queued on
// it are the link's to settle — it resends them or fails them through
// sendDone.
func (p *Peer) connLost(c *tcpConn, err error) {
	p.mu.Lock()
	for corr, s := range p.pending {
		if s.conn == c {
			delete(p.pending, corr)
			s.settle(fmt.Errorf("connection lost: %w", err))
		}
	}
	p.mu.Unlock()
}

// Close unbinds the peer, fails every outstanding Call with ErrClosed and
// waits for every request its handler was handed to be answered through its
// Replier.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for corr, s := range p.pending {
		delete(p.pending, corr)
		s.settle(ErrClosed)
	}
	p.mu.Unlock()
	p.link.Unlisten(p.addr)
	p.wg.Wait()
}

// deliver implements endpoint: replies go to their waiting calls, requests to
// the handler, on the link's goroutine; serialization, where needed, is the
// receiver's concern (agent mailboxes provide it). A request without a
// correlation id has no call waiting for its answer — no Peer sends one — and
// is dropped unserved.
func (p *Peer) deliver(env Envelope, borrowed bool) {
	if env.Reply {
		p.complete(env.Corr, env.ErrMsg, env.Payload, borrowed)
		return
	}
	if env.Corr == 0 {
		return
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()

	r := Replier{p: p, to: env.From, kind: env.Kind, corr: env.Corr, via: env.via}
	p.inline(handlerContext(env.Trace), r, env.Agent, env.Kind, env.Payload)
}

// handlerContext is the context a handler runs under: the envelope's trace
// context when it carries one, nothing otherwise.
func handlerContext(sc trace.SpanContext) context.Context {
	if !sc.Valid() {
		return context.Background()
	}
	return trace.ContextWith(context.Background(), sc)
}

// reply queues the answer to the request r was handed for, on the connection
// the request came in on when it came over one. It waits neither for a dial
// nor for the write (see Link.post), so it is safe on a read loop. A reply
// that cannot be sent means the requester is unreachable; its call fails with
// the connection or at its deadline, which is the correct observable
// behaviour.
func (p *Peer) reply(r Replier, body any, err error) {
	reply := Envelope{From: p.addr, To: r.to, Kind: r.kind, Corr: r.corr, Reply: true, via: r.via}
	if err != nil {
		reply.ErrMsg, body = err.Error(), nil
	}
	if err = p.link.post(context.Background(), reply, body, nil); err != nil {
		var encErr *encodeError
		if errors.As(err, &encErr) {
			reply.ErrMsg = fmt.Sprintf("encode response: %v", encErr.err)
			_ = p.link.post(context.Background(), reply, nil, nil)
		}
	}
}

// answer completes the call the peer made to itself under corr with the
// handler's outcome, as a reply off the link would: the body is encoded into
// a pooled buffer, which complete copies into the call's slot.
func (p *Peer) answer(corr uint64, body any, err error) {
	var (
		errMsg  string
		payload []byte
	)
	if err != nil {
		errMsg = err.Error()
	} else if body != nil {
		buf := wire.GetBuf()
		defer wire.PutBuf(buf)
		if *buf, err = AppendV(*buf, body, wire.MsgVersion); err != nil {
			errMsg = fmt.Sprintf("encode response: %v", err)
		} else {
			payload = *buf
		}
	}
	p.complete(corr, errMsg, payload, true)
}

// Encode encodes a message payload as every link sends it, to every peer. The
// codec is a property of the value: one implementing wire.Marshaler gets its
// hand-rolled binary form behind the message header, anything else is gob. Nil
// encodes to an empty payload.
func Encode(v any) ([]byte, error) {
	return EncodeV(v, wire.MsgVersion)
}

// EncodeV is Encode with ver stamped into a binary payload's header; it
// changes nothing else, and a gob payload has no header to stamp.
func EncodeV(v any, ver uint16) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	return AppendV(make([]byte, 0, 64), v, ver)
}

// AppendV appends v's encoding to dst — EncodeV into a buffer the caller
// owns, for paths that encode into pooled space. A nil v appends nothing.
func AppendV(dst []byte, v any, ver uint16) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	if m, ok := v.(wire.Marshaler); ok {
		return m.AppendWire(wire.AppendMsgHeader(dst, uint8(ver))), nil
	}
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

// Decode decodes a payload into v in the one form v's type has: binary, behind
// the message header, for a wire.Unmarshaler — a payload without the header
// is wire.ErrCorrupt — and gob, the control plane's payload codec, for
// anything else. The header cannot open a gob payload, so a binary payload for
// a type without a decoder is wire.ErrCorrupt too. An empty payload leaves v
// untouched. A binary payload of a newer format version than this build reads
// is wire.ErrUnsupportedVersion.
//
// A reply payload belongs to its call until Wait returns: a call slot's reply
// buffer, into which TCP's read buffer and the answer to a call to one's own
// address are copied, or what Network encoded afresh, which is reused once the
// call is over. So a
// decoder copies out whatever it keeps: no response keeps a view of data —
// a string that shares its bytes — past Decode.
func Decode(data []byte, v any) error {
	if len(data) == 0 {
		return nil
	}
	u, hasDecoder := v.(wire.Unmarshaler)
	ver, body, binary := wire.MsgHeader(data)
	switch {
	case hasDecoder && !binary:
		return fmt.Errorf("%w: payload for %T has no binary message header", wire.ErrCorrupt, v)
	case !hasDecoder && binary:
		return fmt.Errorf("%w: binary payload for %T, which has no wire decoder", wire.ErrCorrupt, v)
	case !binary:
		return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	case ver > wire.MsgVersion:
		return fmt.Errorf("%w: message version %d, this build reads ≤ %d", wire.ErrUnsupportedVersion, ver, wire.MsgVersion)
	}
	d := wire.GetDec(body)
	err := u.DecodeWire(d)
	if err == nil {
		err = d.Done()
	}
	wire.PutDec(d)
	return err
}
