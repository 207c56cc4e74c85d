package transport

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Faults injects connection-level failures into a TCP link, so the
// deadline and retry machinery can be proven against the failure modes a
// production deployment meets: peers that accept but never read (stalled
// writes), connections reset mid-call, servers slow to start reading
// (slow accept), and corrupt/torn streams (decode errors at the peer).
//
// Wire one instance through TCPConfig.Faults; every connection the link
// dials or accepts is then wrapped. All knobs are runtime-settable and
// safe for concurrent use, and the zero value injects nothing, so a
// Faults can sit disarmed in a deployment and be armed mid-run (chaos
// tests do exactly that).
type Faults struct {
	mu            sync.Mutex
	stallAll      bool
	stallTargets  map[string]bool
	corruptWrites bool
	acceptDelay   time.Duration
	conns         map[*faultConn]struct{}
	held          chan struct{} // closed by HoldWrites' release

	writes atomic.Int64
}

// NewFaults returns a disarmed fault injector.
func NewFaults() *Faults { return &Faults{} }

// HoldWrites parks every write on the link's connections until release is
// called: a socket slow to drain, not one that never does (StallWrites). The
// held writes then go through in order, whatever their deadlines. A held
// write counts in Writes when it starts, so a test can tell the writer is
// parked and arrange what queues behind it.
func (f *Faults) HoldWrites() (release func()) {
	if f == nil {
		return func() {}
	}
	held := make(chan struct{})
	f.mu.Lock()
	f.held = held
	f.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			if f.held == held {
				f.held = nil
			}
			f.mu.Unlock()
			close(held)
		})
	}
}

// hold is the channel a write must wait for, nil when writes are not held.
func (f *Faults) hold() chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.held
}

// StallWrites arms (or disarms) write stalling on every connection: writes
// block like a peer that never reads — until the write deadline passes
// (returning os.ErrDeadlineExceeded) or the connection is closed. A
// connection with no write deadline stalls forever, which is exactly the
// bug class the TCP write deadlines exist to rule out.
func (f *Faults) StallWrites(on bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.stallAll = on
	f.mu.Unlock()
}

// StallWritesTo arms (or disarms) write stalling only for connections whose
// remote address is hostport, leaving traffic to other peers untouched.
func (f *Faults) StallWritesTo(hostport string, on bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.stallTargets == nil {
		f.stallTargets = make(map[string]bool)
	}
	if on {
		f.stallTargets[hostport] = true
	} else {
		delete(f.stallTargets, hostport)
	}
	f.mu.Unlock()
}

// CorruptWrites arms (or disarms) stream corruption: the next write
// delivers a bit-flipped half of its bytes and then hard-closes the
// connection, so the peer's gob decoder meets either garbage framing or an
// EOF mid-message — the torn/corrupt stream scenario, never a clean
// message.
func (f *Faults) CorruptWrites(on bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.corruptWrites = on
	f.mu.Unlock()
}

// SetAcceptDelay makes the link sit on each accepted connection for d
// before it starts reading — a server that accepts but is slow to serve.
func (f *Faults) SetAcceptDelay(d time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.acceptDelay = d
	f.mu.Unlock()
}

// ResetAll abruptly closes every live connection on the link — the
// mid-call connection reset. Subsequent sends on cached connections fail
// and must recover through the redial path.
func (f *Faults) ResetAll() {
	if f == nil {
		return
	}
	f.mu.Lock()
	conns := make([]*faultConn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.reset()
	}
}

// Writes reports how many Write calls the link has made on its connections
// so far, stalled and corrupted ones included — the system calls a fault-free
// link would have issued, which is how tests see frames sharing a write.
func (f *Faults) Writes() int64 { return f.writes.Load() }

// wrap intercepts a connection. Nil receivers pass the connection through,
// so the TCP link never needs to guard the call.
func (f *Faults) wrap(conn net.Conn) net.Conn {
	if f == nil {
		return conn
	}
	c := &faultConn{Conn: conn, f: f, closed: make(chan struct{})}
	f.mu.Lock()
	if f.conns == nil {
		f.conns = make(map[*faultConn]struct{})
	}
	f.conns[c] = struct{}{}
	f.mu.Unlock()
	return c
}

// delayAccept blocks for the configured accept delay. Nil-safe.
func (f *Faults) delayAccept() {
	if f == nil {
		return
	}
	f.mu.Lock()
	d := f.acceptDelay
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (f *Faults) stalls(remote string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stallAll || f.stallTargets[remote]
}

func (f *Faults) corrupts() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.corruptWrites
}

func (f *Faults) forget(c *faultConn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
}

// faultConn wraps a net.Conn, applying the injector's active faults. It
// tracks the write deadline itself so a stalled write can honour
// SetWriteDeadline exactly as a kernel send buffer that never drains would.
type faultConn struct {
	net.Conn
	f *Faults

	mu            sync.Mutex
	writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// Write applies the active write faults, then delegates.
func (c *faultConn) Write(p []byte) (int, error) {
	c.f.writes.Add(1)
	if held := c.f.hold(); held != nil {
		select {
		case <-held:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	if c.f.stalls(c.Conn.RemoteAddr().String()) {
		return 0, c.stall()
	}
	if c.f.corrupts() {
		// A garbled prefix alone could park the peer's decoder waiting
		// for bytes implied by a corrupt length marker, so the tear
		// closes the connection too: the decoder fails fast either on
		// framing garbage or on the mid-message EOF.
		garbled := make([]byte, len(p)/2)
		for i, b := range p[:len(garbled)] {
			garbled[i] = b ^ 0xA5
		}
		_, _ = c.Conn.Write(garbled)
		c.reset()
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// stall blocks like a write into a full, never-draining send buffer: it
// returns only when the write deadline expires or the connection closes.
func (c *faultConn) stall() error {
	c.mu.Lock()
	dl := c.writeDeadline
	c.mu.Unlock()
	if dl.IsZero() {
		<-c.closed
		return net.ErrClosed
	}
	timer := time.NewTimer(time.Until(dl))
	defer timer.Stop()
	select {
	case <-timer.C:
		return os.ErrDeadlineExceeded
	case <-c.closed:
		return net.ErrClosed
	}
}

// SetWriteDeadline records the deadline for stalled writes and delegates.
func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// SetDeadline covers the write side too.
func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// Close releases stalled writers and delegates.
func (c *faultConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.f.forget(c)
	})
	return c.Conn.Close()
}

// reset closes the underlying connection without unblocking bookkeeping —
// the local side discovers the break on its next read or write, exactly
// like a peer-sent RST.
func (c *faultConn) reset() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		// Linger 0 turns the close into a hard RST on real stacks.
		_ = tc.SetLinger(0)
	}
	c.closeOnce.Do(func() {
		close(c.closed)
		c.f.forget(c)
	})
	_ = c.Conn.Close()
}
