package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agentloc/internal/metrics"
	"agentloc/internal/raceflag"
	"agentloc/internal/trace"
	"agentloc/internal/wire"
)

// TestTCPEchoAllocBudget is the transport's allocation budget: one
// binary-codec round trip between two TCP links, served by a plain handler on
// its own goroutine, may allocate what outlives a step — the handler's
// goroutine, its copy of the request and what it decodes and answers — and
// nothing per layer (measured: 4; 5 while every reply's payload was cloned
// out of the read buffer instead of into the call slot's own).
func TestTCPEchoAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	client := newEchoPair(t, TCPConfig{})
	ctx := context.Background()
	req := &hotReq{Agent: "a-0123456-padded-to-24-b"}
	var resp hotResp
	var callErr error
	allocs := testing.AllocsPerRun(2000, func() {
		if err := client.Call(ctx, "echo-server", "echo", req, &resp); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		t.Fatal(callErr)
	}
	t.Logf("%.1f allocs per echo round trip", allocs)
	if allocs > 4 {
		t.Errorf("echo round trip allocates %.1f times, budget 4", allocs)
	}
}

// TestTCPCoalescesConcurrentCallers: callers that share a connection share
// its writes. Each round parks the connection's writer in the write of one
// pacer call and queues every caller's request behind it before letting go,
// so the overlap does not depend on how the scheduler ran the callers — one
// at a time on a single P, the writer would otherwise take each request as
// it came. Counted at the socket, the round's requests leave in one write.
func TestTCPCoalescesConcurrentCallers(t *testing.T) {
	f := NewFaults()
	client := newEchoPair(t, TCPConfig{Faults: f})
	link := client.link.(*TCP)
	const callers, rounds = 16, 50
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		var resp hotResp
		if err := client.Call(ctx, "echo-server", "echo", &hotReq{Agent: "a"}, &resp); err != nil {
			t.Error(err)
		}
	}
	before := f.Writes()
	for r := 0; r < rounds; r++ {
		release := f.HoldWrites()
		start := f.Writes()
		wg.Add(1 + callers)
		go call() // the pacer, whose write is held
		waitFor(t, "the pacer's write started", func() bool { return f.Writes() > start })
		for c := 0; c < callers; c++ {
			go call()
		}
		waitFor(t, "every caller queued", func() bool { return queued(link) == callers })
		release()
		wg.Wait()
	}
	if writes := f.Writes() - before; writes != 2*rounds {
		t.Errorf("%d rounds of a pacer and %d queued calls took %d writes, want %d", rounds, callers, writes, 2*rounds)
	}
}

// queued counts the frames waiting in the link's out-queues.
func queued(l *TCP) (n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.mu.Lock()
		n += len(c.queue)
		c.mu.Unlock()
	}
	return n
}

// waitFor yields until cond holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("not within 5s: %s", what)
		}
		runtime.Gosched()
	}
}

// TestTCPIdleConnectionOutlivesWriteTimeout: the write deadline bounds a write
// in progress, not the life of a connection. A link that sits idle for several
// write timeouts — after the handshake, after a lone frame, after a burst —
// sends its next frame on the same connection, without an error.
func TestTCPIdleConnectionOutlivesWriteTimeout(t *testing.T) {
	trc := trace.NewLog(64)
	const writeTimeout = 50 * time.Millisecond
	srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", WriteTimeout: writeTimeout, Trace: trc})
	if err != nil {
		t.Fatal(err)
	}
	defer srvLink.Close()
	srv, err := NewPeer(srvLink, "server", func(context.Context, Addr, string, []byte) (any, error) {
		return &hotResp{Version: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	target := srvLink.ListenAddr()
	cliLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"server": target}, WriteTimeout: writeTimeout, Trace: trc})
	if err != nil {
		t.Fatal(err)
	}
	defer cliLink.Close()
	client, err := NewPeer(cliLink, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	echo := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var resp hotResp
		if err := client.Call(ctx, "server", "echo", &hotReq{Agent: "a"}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	connNow := func() *tcpConn {
		cliLink.mu.Lock()
		defer cliLink.mu.Unlock()
		return cliLink.conns[target]
	}

	echo() // dial, handshake, one frame
	first := connNow()
	time.Sleep(3 * writeTimeout)
	echo()
	// Concurrent callers queue behind one another, so flushes carry batches.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				echo()
			}
		}()
	}
	wg.Wait()
	time.Sleep(3 * writeTimeout)
	echo()

	if errs := trc.Filter("transport.conn_error"); len(errs) > 0 {
		t.Errorf("idle connection failed: %v", errs)
	}
	if c := connNow(); c == nil || c != first {
		t.Error("the second burst went out on a new connection; the idle one was dropped")
	}
}

// TestTCPAcceptedConnectionOutlivesFirstFrameDeadline is the read-side twin
// of TestTCPIdleConnectionOutlivesWriteTimeout: an accepted connection's read
// deadline bounds its first frame, not its life. A peer that goes idle after
// that frame for several bounds is still served on the same connection.
func TestTCPAcceptedConnectionOutlivesFirstFrameDeadline(t *testing.T) {
	reg := metrics.New()
	const bound = 50 * time.Millisecond
	srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", WriteTimeout: bound, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srvLink.Close()
	srv, err := NewPeer(srvLink, "server", func(context.Context, Addr, string, []byte) (any, error) {
		return &hotResp{Version: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", srvLink.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	replies := newEnvReader(raw)
	call := func(corr uint64) {
		t.Helper()
		payload, err := Encode(&hotReq{Agent: "a"})
		if err != nil {
			t.Fatal(err)
		}
		env := Envelope{From: "raw", To: "server", Kind: "echo", Corr: corr, Payload: payload}
		if _, err := raw.Write(wire.AppendFrame(nil, envMagic, envFrameVersion, frameEnvelope, appendEnvBody(nil, &env))); err != nil {
			t.Fatal(err)
		}
		_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		var reply Envelope
		if err := replies.decode(&reply); err != nil || !reply.Reply || reply.Corr != corr || reply.ErrMsg != "" {
			t.Fatalf("call %d: reply %+v, err %v", corr, reply, err)
		}
	}
	call(1)
	time.Sleep(3 * bound)
	call(2)
	if all := reg.Snapshot().Counter(metricConnErrs); all != 0 {
		t.Errorf("an idle healthy connection counted %d connection errors", all)
	}
}

// TestTCPKeepsFrameOrder: envelopes one goroutine sends to one destination
// arrive in the order sent, however the writer happens to batch them.
func TestTCPKeepsFrameOrder(t *testing.T) {
	client, _, got := newFaultyTCPPair(t, TCPConfig{})
	const n = 2000
	seen := make(chan error, 1)
	go func() {
		for want := uint64(1); want <= n; want++ {
			if env := <-got; env.Corr != want {
				seen <- fmt.Errorf("envelope %d arrived where %d was due", env.Corr, want)
				return
			}
		}
		seen <- nil
	}()
	// A second sender keeps the queue busy, so batches vary in size.
	stop := make(chan struct{})
	var noise sync.WaitGroup
	noise.Add(1)
	go func() {
		defer noise.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = client.post(context.Background(), Envelope{From: "c", To: "nobody-listens"}, nil, nil)
			}
		}
	}()
	for i := uint64(1); i <= n; i++ {
		if err := client.post(context.Background(), Envelope{From: "c", To: "server", Corr: i}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	noise.Wait()
	select {
	case err := <-seen:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("not every envelope arrived")
	}
}

// TestPeerCloseFailsParkedCalls: a call waiting on a peer that will never
// answer ends with ErrClosed when its own peer closes, not at its deadline.
func TestPeerCloseFailsParkedCalls(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	client, _, _ := newPeerPair(t, func(context.Context, Addr, string, []byte) (any, error) {
		<-block // the black hole
		return nil, nil
	})
	done := make(chan error, 1)
	go func() { done <- client.Call(context.Background(), "server", "x", nil, nil) }()
	waitPending(t, client, 1)
	closed := time.Now()
	client.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked call ended with %v, want ErrClosed", err)
		}
		if d := time.Since(closed); d > 50*time.Millisecond {
			t.Errorf("parked call returned %v after Close, want within 50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the call parked")
	}
}

// waitPending waits until the peer has n calls outstanding.
func waitPending(t *testing.T, p *Peer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		got := len(p.pending)
		p.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d calls outstanding, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeerDroppedConnectionFailsCallsInFlight: when the connection a request
// went out on dies, the call fails with the connection's error at once; it
// does not wait for its deadline.
func TestPeerDroppedConnectionFailsCallsInFlight(t *testing.T) {
	f := NewFaults()
	srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srvLink.Close()
	block, arrived := make(chan struct{}), make(chan struct{}, 1)
	srv, err := NewPeer(srvLink, "server", func(context.Context, Addr, string, []byte) (any, error) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block) // before srv.Close, which waits for the handler
	cliLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"server": srvLink.ListenAddr()}, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	defer cliLink.Close()
	client, err := NewPeer(cliLink, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	done := make(chan error, 1)
	go func() { done <- client.Call(context.Background(), "server", "x", nil, nil) }()
	select {
	case <-arrived: // the request went out on the connection about to die
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the server")
	}
	f.ResetAll()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call on a dropped connection ended with %v, want the connection's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped connection left its call waiting")
	}
}

// TestPeerCallSurvivesResend: a request still queued when its connection
// breaks is the link's to resend, and the call waits for that — the loss of the
// connection fails only calls whose requests had been written to it.
func TestPeerCallSurvivesResend(t *testing.T) {
	f := NewFaults()
	trc := trace.NewLog(64)
	client := newEchoPair(t, TCPConfig{Faults: f, WriteTimeout: 40 * time.Millisecond, RedialBackoff: 300 * time.Millisecond, Trace: trc})

	f.StallWrites(true) // the cached connection takes nothing more
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var resp hotResp
		done <- client.Call(ctx, "echo-server", "echo", &hotReq{Agent: "a"}, &resp)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(trc.Filter("transport.conn_error")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled write never failed")
		}
		time.Sleep(time.Millisecond)
	}
	f.StallWrites(false) // in time for the redial
	if err := <-done; err != nil {
		t.Fatalf("call whose request was never written ended with %v, want it resent", err)
	}
}

// TestTCPReplyIsNeverDialedFor: a reply goes back over a connection that
// exists — here the one its request came in on, the replier having none of its
// own to a requester its directory misplaces — so posting one never waits for a
// dial, on a read loop least of all.
func TestTCPReplyIsNeverDialedFor(t *testing.T) {
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nobody := gone.Addr().String()
	gone.Close()

	for _, inline := range []bool{true, false} {
		t.Run(fmt.Sprintf("inline=%v", inline), func(t *testing.T) {
			trc := trace.NewLog(64)
			srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"client": nobody}, Trace: trc})
			if err != nil {
				t.Fatal(err)
			}
			defer srvLink.Close()
			srv, err := NewServingPeer(srvLink, "server",
				func(_ context.Context, r Replier, _, _ string, _ []byte) {
					if inline {
						r.Reply(nil, nil)
					} else {
						go r.Reply(nil, nil)
					}
				}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cliLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"server": srvLink.ListenAddr()}})
			if err != nil {
				t.Fatal(err)
			}
			defer cliLink.Close()
			client, err := NewPeer(cliLink, "client", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := client.Call(ctx, "server", "x", nil, nil); err != nil {
				t.Fatalf("reply did not come back the way the request went: %v", err)
			}
			if errs := trc.Filter("transport.conn_error"); len(errs) > 0 {
				t.Errorf("the replier dialed: %v", errs)
			}
		})
	}
}

// TestReplyRidesRequestConnection: between two links that have each dialed the
// other, a reply goes back on the connection its request came in on, not on
// the replier's own connection to the requester. With the replier's own
// connection stalled, every call from the other side is still answered.
func TestReplyRidesRequestConnection(t *testing.T) {
	f := NewFaults()
	aLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer aLink.Close()
	bLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	defer bLink.Close()
	aLink.AddRoute("b", bLink.ListenAddr())
	bLink.AddRoute("a", aLink.ListenAddr())

	answer := func(_ context.Context, r Replier, _, _ string, _ []byte) { r.Reply(nil, nil) }
	a, err := NewServingPeer(aLink, "a", answer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewServingPeer(bLink, "b", answer, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	releasesAll(t, a)
	releasesAll(t, b)

	call := func(from *Peer, to Addr) error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		return from.Call(ctx, to, "x", nil, nil)
	}
	// Both directions dialed: each link now holds a connection of its own to
	// the other besides the one the other dialed.
	if err := call(b, "a"); err != nil {
		t.Fatal(err)
	}
	if err := call(a, "b"); err != nil {
		t.Fatal(err)
	}

	// Only b's own connection to a takes nothing more.
	f.StallWritesTo(aLink.ListenAddr(), true)
	for i := 0; i < 10; i++ {
		if err := call(a, "b"); err != nil {
			t.Fatalf("call %d from a to b: %v — its reply did not ride the request's connection", i, err)
		}
	}
}

// TestPeerLateReplyMissesRecycledSlot: a reply that arrives after its call
// gave up must not be taken for the answer to a later call, although the
// later call waits in the same pooled slot.
func TestPeerLateReplyMissesRecycledSlot(t *testing.T) {
	release := make(chan struct{})
	client, _, _ := newPeerPair(t, func(_ context.Context, _ Addr, kind string, _ []byte) (any, error) {
		if kind == "slow" {
			<-release
		}
		return echoResp{Text: kind}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := client.Call(ctx, "server", "slow", nil, nil)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call ended with %v, want its deadline", err)
	}
	// Calls from one goroutine with nothing else running take the slot the
	// slow call just returned. Its reply is released in the middle of them.
	for i := 0; i < 200; i++ {
		if i == 100 {
			close(release)
		}
		var resp echoResp
		cctx, ccancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := client.Call(cctx, "server", "fast", nil, &resp)
		ccancel()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Text != "fast" {
			t.Fatalf("call %d was answered %q: a late reply reached a recycled slot", i, resp.Text)
		}
	}
}

// TestInlineServedWhileRepliesCannotBeWritten: requests served on the read
// loop keep being read and served while the socket their replies go to takes
// nothing — the replies queue, the read loop never waits for a write. Were it
// to, two nodes each writing to the other while neither reads would deadlock
// until the write deadline.
func TestInlineServedWhileRepliesCannotBeWritten(t *testing.T) {
	f := NewFaults()
	srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Faults: f, WriteTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srvLink.Close()
	var served atomic.Int64
	srv, err := NewServingPeer(srvLink, "server", func(_ context.Context, r Replier, _, _ string, _ []byte) {
		served.Add(1)
		r.Reply(nil, nil)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cliLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"server": srvLink.ListenAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cliLink.Close()
	client, err := NewPeer(cliLink, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// One answered call first, so the connection the server's replies go out
	// on is open.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.Call(ctx, "server", "warm-up", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Every write of the server's now stalls: the writer of the connection
	// its replies go out on parks in the stall.
	f.StallWrites(true)
	const n = 64
	base := served.Load()
	// The calls wait until every request is served, however long that takes
	// under load, and are then called off: none of them can have a reply.
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := client.Call(cctx, "server", "x", nil, nil); !errors.Is(err, context.Canceled) {
				t.Errorf("call ended with %v while no reply can be written, want it called off", err)
			}
		}()
	}
	waitFor(t, fmt.Sprintf("the read loop serving %d requests while replies are stalled", n), func() bool { return served.Load()-base == n })
	ccancel()
	wg.Wait()
}

// TestDeadlineContext pins the lazy context's contract: the deadline is
// reported at once and is the earlier of its own and the parent's, Done is
// built on demand and closes at the deadline, with the parent, or on Release.
func TestDeadlineContext(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()

	dc := WithDeadline(parent, time.Now().Add(30*time.Millisecond))
	if dc.Err() != nil {
		t.Fatalf("fresh context reports %v", dc.Err())
	}
	if dc.done != nil {
		t.Fatal("Done channel built before anyone asked")
	}
	select {
	case <-dc.Done():
		if !errors.Is(dc.Err(), context.DeadlineExceeded) {
			t.Errorf("Err after the deadline = %v", dc.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed at the deadline")
	}

	early, ecancel := context.WithTimeout(parent, time.Millisecond)
	defer ecancel()
	if d, _ := WithDeadline(early, time.Now().Add(time.Hour)).Deadline(); time.Until(d) > time.Minute {
		t.Errorf("deadline %v ignores the parent's earlier one", d)
	}

	dc = WithDeadline(parent, time.Now().Add(time.Hour))
	done := dc.Done()
	cancel()
	select {
	case <-done:
		if !errors.Is(dc.Err(), context.Canceled) {
			t.Errorf("Err after the parent was cancelled = %v", dc.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed with the parent")
	}

	dc = WithDeadline(context.Background(), time.Now().Add(time.Hour))
	done = dc.Done()
	dc.Release()
	select {
	case <-done:
		if !errors.Is(dc.Err(), context.Canceled) {
			t.Errorf("Err after Release = %v", dc.Err())
		}
	default:
		t.Fatal("Release left Done open")
	}
}

// TestPeerCallHonoursDeadlineContext: Peer.Call waits out a DeadlineContext
// on its slot's timer, without the context's Done channel ever being built.
func TestPeerCallHonoursDeadlineContext(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	client, _, _ := newPeerPair(t, func(context.Context, Addr, string, []byte) (any, error) {
		<-block
		return nil, nil
	})
	dc := WithDeadline(context.Background(), time.Now().Add(30*time.Millisecond))
	defer dc.Release()
	start := time.Now()
	err := client.Call(dc, "server", "x", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("call returned after %v with a 30ms deadline", d)
	}
	if dc.done != nil {
		t.Error("Peer.Call built the context's Done channel")
	}
}
