package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"agentloc/internal/metrics"
	"agentloc/internal/trace"
	"agentloc/internal/wire"
)

// Default deadline knobs for TCPConfig. Zero values in the config select
// these; negative values disable the bound entirely.
const (
	// DefaultDialTimeout bounds connection establishment. A few seconds is
	// enough on any LAN; without it a dial to a black-holed peer blocks for
	// the OS connect timeout (minutes).
	DefaultDialTimeout = 3 * time.Second
	// DefaultWriteTimeout bounds each envelope write. A peer that accepts
	// but never reads eventually fills its receive window; the deadline
	// turns that silent stall into an error that drops the connection.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultRedialBackoff is the pause before the automatic redial after a
	// send hit a broken cached connection.
	DefaultRedialBackoff = 50 * time.Millisecond
)

// TCPConfig configures a TCP link.
type TCPConfig struct {
	// ListenOn is the local "host:port" to accept envelopes on. Use
	// ":0" to pick a free port (see TCP.ListenAddr).
	ListenOn string
	// Directory maps endpoint addresses to "host:port" dial targets.
	// Local addresses need no entry. Entries may be added later with
	// AddRoute.
	Directory map[Addr]string

	// DialTimeout bounds each outgoing connection attempt. Zero selects
	// DefaultDialTimeout; negative disables the bound.
	DialTimeout time.Duration
	// WriteTimeout bounds each envelope write, so one stalled peer cannot
	// wedge every sender to it. It also bounds how long an accepted
	// connection may take to deliver its first frame: the dialer's writer
	// gets that frame out within its own write timeout, so a connection still
	// short of one is not a peer. Zero selects DefaultWriteTimeout; negative
	// disables both bounds.
	WriteTimeout time.Duration
	// RedialBackoff is the pause before redialing after a send found its
	// cached connection broken. Zero selects DefaultRedialBackoff;
	// negative disables the pause.
	RedialBackoff time.Duration

	// Metrics, when set, counts connection-level failures into
	// agentloc_transport_conn_errors_total{reason} (reason is "dial",
	// "write", "decode", "torn", "reset" or "timeout"; "decode" is also where
	// a peer that does not speak the frame format ends up, "timeout" where an
	// accepted connection that sends no whole first frame within WriteTimeout
	// does). Nil disables accounting.
	Metrics *metrics.Registry
	// Trace, when set, records connection-level events (dial failures,
	// write timeouts, corrupt streams) as transport.conn_error entries.
	Trace *trace.Log
	// Faults, when set, injects connection-level failures for tests and
	// chaos runs (see Faults). Nil — the production value — injects
	// nothing.
	Faults *Faults
}

// TCP carries envelopes over TCP connections, implementing Link. One TCP
// instance serves all local endpoints of a process; connections to remote
// processes are dialed on demand and cached.
//
// Every connection has an out-queue and one writer goroutine. Sending is
// queueing: post (and Send, which waits for the outcome) appends the envelope
// to the queue of the connection it resolves to, and the writer takes
// everything queued, frames it and hands it to the socket with one write —
// so frames on a connection keep their queueing order, concurrent senders
// share system calls, and nothing but a writer ever waits for a socket.
type TCP struct {
	dialTimeout   time.Duration
	writeTimeout  time.Duration
	redialBackoff time.Duration
	reg           *metrics.Registry
	trc           *trace.Log
	faults        *Faults

	// life ends at Close: it cuts short the redial pauses and dials of
	// resends nobody may be waiting for any more.
	life context.Context
	stop context.CancelFunc

	// mu guards the routing state below. The send path takes it once per
	// envelope (route), the receive path once (readLoop); it is never held
	// across a dial, a write or a handler. Lock order: mu before tcpConn.mu.
	mu        sync.Mutex
	listener  net.Listener
	directory map[Addr]string
	handlers  map[Addr]tcpHandler
	conns     map[string]*tcpConn
	// inbound holds every live connection, dialed or accepted, under its
	// socket, so Close reaches them all.
	inbound map[net.Conn]*tcpConn
	// learned maps sender addresses to the inbound connection they last
	// spoke on, so replies reach peers that have no directory entry
	// (ephemeral clients).
	learned map[Addr]*tcpConn
	closed  bool
	wg      sync.WaitGroup
}

// tcpHandler is one local binding: an endpoint (a Peer, which takes
// envelopes whose payload it may only borrow) or a plain Handler.
type tcpHandler struct {
	h  Handler
	ep endpoint
}

func (h tcpHandler) deliver(env Envelope, borrowed bool) {
	if h.ep != nil {
		h.ep.deliver(env, borrowed)
		return
	}
	if borrowed {
		env.Payload = bytes.Clone(env.Payload)
	}
	h.h(env)
}

type tcpConn struct {
	conn net.Conn

	mu    sync.Mutex
	wake  *sync.Cond // nil until the first frame starts the writer
	queue []outFrame
	err   error // why the connection is dead; set once, by connGone
}

// outFrame is one queued envelope. Its payload lives in buf, a pooled buffer
// the writer releases once the frame is written or has failed.
type outFrame struct {
	env Envelope
	buf *[]byte
	w   sendWaiter
	// redial is where to resend the frame if its connection turns out
	// broken: the dial target, for a frame queued on a cached connection —
	// one that predated it, whose peer may have restarted without the
	// sender being able to know — and empty for a frame that gets no second
	// try (fresh dial, learned route, already resent).
	redial string
}

var (
	_ Link             = (*TCP)(nil)
	_ ContextSender    = (*TCP)(nil)
	_ poster           = (*TCP)(nil)
	_ endpointListener = (*TCP)(nil)
)

// pickTimeout resolves a config knob against its default: zero selects the
// default, negative disables (returns 0).
func pickTimeout(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// NewTCP starts accepting connections on cfg.ListenOn.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	ln, err := net.Listen("tcp", cfg.ListenOn)
	if err != nil {
		return nil, fmt.Errorf("tcp listen %s: %w", cfg.ListenOn, err)
	}
	dir := make(map[Addr]string, len(cfg.Directory))
	for a, hp := range cfg.Directory {
		dir[a] = hp
	}
	describeTransportMetrics(cfg.Metrics)
	// Pre-create the failure series so the family shows up (at zero) in
	// scrapes of a healthy node — absence means "not instrumented", not
	// "no errors".
	for _, reason := range []string{"dial", "write", "decode", "torn", "reset", "timeout"} {
		cfg.Metrics.Counter(metricConnErrs, "reason", reason)
	}
	t := &TCP{
		dialTimeout:   pickTimeout(cfg.DialTimeout, DefaultDialTimeout),
		writeTimeout:  pickTimeout(cfg.WriteTimeout, DefaultWriteTimeout),
		redialBackoff: pickTimeout(cfg.RedialBackoff, DefaultRedialBackoff),
		reg:           cfg.Metrics,
		trc:           cfg.Trace,
		faults:        cfg.Faults,
		listener:      ln,
		directory:     dir,
		handlers:      make(map[Addr]tcpHandler),
		conns:         make(map[string]*tcpConn),
		inbound:       make(map[net.Conn]*tcpConn),
		learned:       make(map[Addr]*tcpConn),
	}
	t.life, t.stop = context.WithCancel(context.Background())
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// ListenAddr returns the actual local listen address (useful with ":0").
func (t *TCP) ListenAddr() string { return t.listener.Addr().String() }

// AddRoute registers or replaces the dial target for a remote address.
func (t *TCP) AddRoute(addr Addr, hostport string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.directory[addr] = hostport
}

// Listen implements Link.
func (t *TCP) Listen(addr Addr, h Handler) error {
	return t.bind(addr, tcpHandler{h: h})
}

// listenEndpoint implements endpointListener.
func (t *TCP) listenEndpoint(addr Addr, ep endpoint) error {
	return t.bind(addr, tcpHandler{ep: ep})
}

func (t *TCP) bind(addr Addr, h tcpHandler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, ok := t.handlers[addr]; ok {
		return ErrAddrInUse
	}
	t.handlers[addr] = h
	return nil
}

// Unlisten implements Link.
func (t *TCP) Unlisten(addr Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.handlers, addr)
}

// Send implements Link. Envelopes to locally bound addresses loop back
// without touching the network. Send returns once the envelope is written to
// its connection; one that met a broken cached connection is transparently
// resent once over a fresh one first.
func (t *TCP) Send(env Envelope) error {
	return t.SendCtx(context.Background(), env)
}

// syncWaiter is the sendWaiter of a Send: it parks the outcome for the
// sender to collect.
type syncWaiter chan error

func (w syncWaiter) sendDone(_ uint64, _ *tcpConn, err error) { w <- err }

var syncWaiterPool = sync.Pool{New: func() any { return make(syncWaiter, 1) }}

// SendCtx implements ContextSender: Send, but the wait — for a dial, a
// stalled write, the pause before a redial — is given up when ctx ends. The
// envelope may still go out afterwards.
func (t *TCP) SendCtx(ctx context.Context, env Envelope) error {
	w := syncWaiterPool.Get().(syncWaiter)
	if err := t.post(ctx, env, nil, w); err != nil {
		syncWaiterPool.Put(w)
		return err
	}
	select {
	case err := <-w:
		syncWaiterPool.Put(w)
		return err
	case <-ctx.Done():
		// w still gets its outcome some day, so it cannot be pooled.
		return fmt.Errorf("tcp send to %s: %w", env.To, ctx.Err())
	}
}

// post implements poster.
func (t *TCP) post(ctx context.Context, env Envelope, body any, w sendWaiter) error {
	c, local, redial, err := t.route(ctx, env.To, env.Reply)
	if err != nil {
		return err
	}
	if local != nil {
		return t.postLocal(local, env, body, w)
	}

	buf := wire.GetBuf()
	if body != nil {
		if *buf, err = AppendV(*buf, body, wire.MsgVersion); err != nil {
			wire.PutBuf(buf)
			return &encodeError{err}
		}
	} else {
		*buf = append(*buf, env.Payload...)
	}
	env.Payload = *buf
	f := outFrame{env: env, buf: buf, w: w, redial: redial}
	if err := t.enqueue(c, f); err != nil {
		if errors.Is(err, ErrClosed) {
			wire.PutBuf(buf)
			return err
		}
		// The connection died between route and here, as one found broken
		// by its writer would have: same treatment.
		t.settle(err, []outFrame{f})
	}
	return nil
}

// postLocal loops an envelope back to a handler bound on this link, on a
// goroutine of its own (route raised t.wg for it). It is a function of its own
// so that the envelope escapes to the heap here and not in every post.
func (t *TCP) postLocal(local *tcpHandler, env Envelope, body any, w sendWaiter) error {
	var err error
	if env.Payload, err = ownPayload(env.Payload, body); err != nil {
		t.wg.Done()
		return err
	}
	go func() {
		defer t.wg.Done()
		local.deliver(env, false)
	}()
	if w != nil {
		w.sendDone(env.Corr, nil, nil)
	}
	return nil
}

// route resolves where an envelope to the address goes, under one hold of
// t.mu: a local handler (with t.wg raised for the goroutine that will run
// it), or a connection — cached, learned from inbound traffic, or, when there
// is none yet, dialed within ctx. redial is non-empty for a cached
// connection: it predates the call, so its liveness is unproven, and a frame
// that finds it broken is resent once to that dial target.
//
// A reply is never dialed for: it may be on its way out of a read loop, which
// must not wait, and its request came in on a connection, which is the way
// back when the link has none of its own. A requester whose connections are
// all gone has had its call failed already (endpoint.connLost).
func (t *TCP) route(ctx context.Context, to Addr, reply bool) (c *tcpConn, local *tcpHandler, redial string, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, nil, "", ErrClosed
	}
	if h, ok := t.handlers[to]; ok {
		t.wg.Add(1)
		t.mu.Unlock()
		local := h // a copy made here, so only this branch pays for the pointer
		return nil, &local, "", nil
	}
	target, ok := t.directory[to]
	if !ok {
		// No directory entry: reply over the connection the peer spoke
		// on, if it did. There is nowhere to redial an ephemeral peer.
		c = t.learned[to]
		t.mu.Unlock()
		if c == nil {
			return nil, nil, "", fmt.Errorf("%w: %s", ErrUnknownAddr, to)
		}
		return c, nil, "", nil
	}
	if c = t.conns[target]; c != nil {
		t.mu.Unlock()
		return c, nil, target, nil
	}
	if reply {
		c = t.learned[to]
		t.mu.Unlock()
		if c == nil {
			return nil, nil, "", fmt.Errorf("tcp reply to %s: no connection left to it", to)
		}
		return c, nil, "", nil
	}
	t.mu.Unlock()
	c, cached, err := t.connTo(ctx, target)
	if err != nil {
		t.noteConnError("dial", to, err)
		return nil, nil, "", err
	}
	if cached {
		// Another goroutine won the dial race.
		redial = target
	}
	return c, nil, redial, nil
}

// enqueue appends a frame to the connection's out-queue and wakes its writer,
// starting it at the connection's first frame. It fails with the connection's
// error when the connection is already dead, and with ErrClosed on a closed
// link.
func (t *TCP) enqueue(c *tcpConn, f outFrame) error {
	c.mu.Lock()
	for c.wake == nil && c.err == nil {
		c.mu.Unlock()
		if err := t.startWriter(c); err != nil {
			return err
		}
		c.mu.Lock()
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.queue = append(c.queue, f)
	c.wake.Signal()
	c.mu.Unlock()
	return nil
}

func (t *TCP) startWriter(c *tcpConn) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	c.mu.Lock()
	if c.wake == nil {
		c.wake = sync.NewCond(&c.mu)
		t.wg.Add(1)
		go t.writeLoop(c)
	}
	c.mu.Unlock()
	return nil
}

// writeLoop is the connection's one writer: it takes whatever is queued,
// writes it as one batch, reports the outcomes, and sleeps when the queue is
// empty. It ends with the connection.
func (t *TCP) writeLoop(c *tcpConn) {
	defer t.wg.Done()
	var (
		batch []outFrame // swapped with c.queue, so neither is reallocated
		out   []byte     // the batch's bytes, reused between flushes
	)
	c.mu.Lock()
	for {
		for len(c.queue) == 0 && c.err == nil {
			c.wake.Wait()
		}
		if err := c.err; err != nil {
			c.mu.Unlock()
			// connGone has settled the queue and told the endpoints. They
			// are told once more: what this writer reported as written
			// after connGone looked has not heard yet.
			t.tellLost(c, err)
			return
		}
		batch, c.queue = c.queue, batch[:0]
		c.mu.Unlock()

		var err error
		if out, err = t.flush(c, batch, out[:0]); err != nil {
			t.noteConnError("write", batch[0].env.To, err)
			t.connGone(c, err, batch)
			return
		}
		for i := range batch {
			f := &batch[i]
			wire.PutBuf(f.buf)
			if f.w != nil {
				f.w.sendDone(f.env.Corr, c, nil)
			}
			*f = outFrame{}
		}
		c.mu.Lock()
	}
}

// flush writes one batch — every frame in a single write — under one write
// deadline. The deadline is left standing: nothing writes to the socket but
// the next flush, which moves it first, so a connection can sit idle past it.
func (t *TCP) flush(c *tcpConn, batch []outFrame, out []byte) ([]byte, error) {
	if t.writeTimeout > 0 {
		// A deadline-set failure means the conn is already dead; the write
		// below surfaces that.
		_ = c.conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
	}
	for i := range batch {
		var start int
		out, start = wire.BeginFrame(out, envMagic, envFrameVersion, frameEnvelope)
		out = appendEnvBody(out, &batch[i].env)
		out = wire.EndFrame(out, start)
	}
	_, err := c.conn.Write(out)
	if cap(out) > maxBatchBuf {
		out = nil
	}
	return out, err
}

// maxBatchBuf caps the write buffer a connection keeps between flushes: room
// for a few hundred hot-path frames, while the odd multi-megabyte control
// message (a checkpoint, a handoff) does not stay resident per connection.
const maxBatchBuf = 1 << 16

// connGone is the one place a connection dies: a failed write, the end of
// its read loop, or Close. The first call marks it dead, closes the socket,
// takes it out of the routing tables and tells every endpoint, so calls
// waiting for replies that were to come back on it fail now; every call
// settles the frames it is handed (the writer's failed batch) plus whatever
// was still queued.
func (t *TCP) connGone(c *tcpConn, cause error, unwritten []outFrame) {
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = cause
		if c.wake != nil {
			c.wake.Broadcast()
		}
	}
	unwritten = append(unwritten, c.queue...)
	c.queue = nil
	c.mu.Unlock()

	if first {
		c.conn.Close()
		t.mu.Lock()
		for addr, lc := range t.learned {
			if lc == c {
				delete(t.learned, addr)
			}
		}
		for target, oc := range t.conns {
			if oc == c {
				delete(t.conns, target)
			}
		}
		delete(t.inbound, c.conn)
		t.mu.Unlock()
		t.tellLost(c, cause)
	}
	t.settle(cause, unwritten)
}

// tellLost tells every endpoint that the connection died. Telling twice is
// harmless, and needed: a frame's sender hears "written to c" from the writer,
// after the write, so a writer that finds c dead after saying so says this too
// — connGone may have come and gone in between.
func (t *TCP) tellLost(c *tcpConn, cause error) {
	t.mu.Lock()
	eps := make([]endpoint, 0, len(t.handlers))
	for _, h := range t.handlers {
		if h.ep != nil {
			eps = append(eps, h.ep)
		}
	}
	t.mu.Unlock()
	for _, ep := range eps {
		ep.connLost(c, cause)
	}
}

// settle decides what becomes of frames that did not make it onto their
// connection — all of them were queued on the same one. Those with somewhere
// to be redialed are resent over a fresh connection, after the redial pause,
// on a goroutine of their own (this is the rare path); the rest fail their
// senders with the cause.
func (t *TCP) settle(cause error, frames []outFrame) {
	var again []outFrame
	for _, f := range frames {
		if f.redial == "" {
			failFrame(f, fmt.Errorf("tcp send to %s: %w", f.env.To, cause))
			continue
		}
		again = append(again, f)
	}
	if len(again) == 0 {
		return
	}
	t.mu.Lock()
	closed := t.closed
	if !closed {
		t.wg.Add(1)
	}
	t.mu.Unlock()
	if closed {
		for _, f := range again {
			failFrame(f, ErrClosed)
		}
		return
	}
	go t.resend(again)
}

// failFrame releases a frame that will not be written and tells its sender.
func failFrame(f outFrame, err error) {
	wire.PutBuf(f.buf)
	if f.w != nil {
		f.w.sendDone(f.env.Corr, nil, err)
	}
}

// resend redials the frames' target after the redial pause and queues them
// on the fresh connection, in their order, so a single stale connection —
// broken while idle, typically a peer restart or reset — does not surface as
// a protocol-level failure. A second failure is final. Closing the link cuts
// the pause and the dial short.
func (t *TCP) resend(frames []outFrame) {
	defer t.wg.Done()
	target := frames[0].redial
	fail := func(f outFrame, err error) {
		failFrame(f, fmt.Errorf("tcp send to %s (%s): %w", f.env.To, target, err))
	}
	var c *tcpConn
	err := t.life.Err()
	if err == nil && t.redialBackoff > 0 {
		timer := time.NewTimer(t.redialBackoff)
		select {
		case <-timer.C:
		case <-t.life.Done():
			timer.Stop()
			err = ErrClosed
		}
	}
	if err == nil {
		if c, _, err = t.connTo(t.life, target); err != nil {
			t.noteConnError("dial", frames[0].env.To, err)
			err = fmt.Errorf("redial: %w", err)
		}
	}
	for _, f := range frames {
		f.redial = ""
		if err != nil {
			fail(f, err)
		} else if qerr := t.enqueue(c, f); qerr != nil {
			fail(f, fmt.Errorf("resend: %w", qerr))
		}
	}
}

// Close implements Link.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*tcpConn, 0, len(t.inbound))
	for _, c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	t.stop()
	err := t.listener.Close()
	for _, c := range conns {
		t.connGone(c, ErrClosed, nil)
	}
	t.wg.Wait()
	return err
}

// connTo returns a cached connection to the target, dialing (with the
// configured timeout, bounded additionally by ctx) if needed. cached reports
// whether the returned connection predates this call — i.e. whether its
// liveness is unproven.
func (t *TCP) connTo(ctx context.Context, target string) (c *tcpConn, cached bool, err error) {
	t.mu.Lock()
	if c, ok := t.conns[target]; ok {
		t.mu.Unlock()
		return c, true, nil
	}
	t.mu.Unlock()

	d := net.Dialer{Timeout: t.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", target)
	if err != nil {
		return nil, false, fmt.Errorf("tcp dial %s: %w", target, err)
	}
	conn = t.faults.wrap(conn)
	c = &tcpConn{conn: conn}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, false, ErrClosed
	}
	if existing, ok := t.conns[target]; ok {
		// Another goroutine won the dial race.
		t.mu.Unlock()
		conn.Close()
		return existing, true, nil
	}
	t.conns[target] = c
	// Outgoing connections are full duplex: replies (and any traffic the
	// peer chooses to send us) come back on the same socket.
	t.inbound[conn] = c
	t.wg.Add(1)
	t.mu.Unlock()
	go t.readLoop(c, false)
	return c, false, nil
}

// readLoop decodes the envelope frames arriving on a connection, learning
// reply routes and handing each envelope to its local handler on this
// goroutine, until the connection closes. Anything but a well-formed envelope
// frame of a version this build reads — a peer of another format generation,
// or not a peer at all — ends the connection, counted as a decode error. It
// never writes to a socket: whatever a handler sends, the reply to a request
// served in place included, is queued for a writer. firstDeadline says the
// connection carries a read deadline for its first frame, cleared once that
// frame is in.
func (t *TCP) readLoop(back *tcpConn, firstDeadline bool) {
	defer t.wg.Done()
	dec := newEnvReader(back.conn)
	for {
		// env.Payload aliases dec's buffer until the next decode.
		var env Envelope
		if err := dec.decode(&env); err != nil {
			t.noteReadError(back.conn, err)
			t.connGone(back, err, nil)
			return
		}
		if firstDeadline {
			_ = back.conn.SetReadDeadline(time.Time{})
			firstDeadline = false
		}
		t.mu.Lock()
		if env.From != "" && t.learned[env.From] != back {
			t.learned[env.From] = back
		}
		h, ok := t.handlers[env.To]
		t.mu.Unlock()
		if ok {
			h.deliver(env, true)
		}
	}
}

// noteReadError accounts for a read-side connection failure. Clean
// shutdowns (EOF, our own Close) are the normal end of a connection and
// are not counted; resets and mid-message corruption are what operators
// need to see.
func (t *TCP) noteReadError(conn net.Conn, err error) {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	// A bare io.EOF is the peer closing between frames; one wrapped in
	// wire.ErrTruncated closed it mid-frame.
	if closed || err == io.EOF || errors.Is(err, net.ErrClosed) {
		return
	}
	reason := "decode"
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		reason = "timeout"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		reason = "torn"
	case errors.Is(err, syscall.ECONNRESET):
		reason = "reset"
	}
	t.noteConnError(reason, Addr(conn.RemoteAddr().String()), err)
}

// noteConnError records a connection-level failure in the trace log and
// counts it — in that order, so whoever sees the count finds the event. Both
// sinks are nil-safe.
func (t *TCP) noteConnError(reason string, peer Addr, err error) {
	t.trc.Emit("tcp", "transport.conn_error", fmt.Sprintf("%s %s: %v", reason, peer, err))
	t.reg.Counter(metricConnErrs, "reason", reason).Inc()
}

// acceptLoop accepts inbound connections and spawns a reader per
// connection.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		conn = t.faults.wrap(conn)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		back := &tcpConn{conn: conn}
		t.inbound[conn] = back
		t.wg.Add(1)
		t.mu.Unlock()
		go func() {
			t.faults.delayAccept()
			// A stranger that connects and stalls before its first frame would
			// otherwise hold this goroutine forever (see WriteTimeout).
			if t.writeTimeout > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(t.writeTimeout))
			}
			t.readLoop(back, t.writeTimeout > 0)
		}()
	}
}
