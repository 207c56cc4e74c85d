package transport

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"agentloc/internal/metrics"
	"agentloc/internal/trace"
	"agentloc/internal/wire"
)

// newFaultyTCPPair builds a client → server TCP pair where the client's
// outgoing connections carry the given fault injector.
func newFaultyTCPPair(t *testing.T, clientCfg TCPConfig) (client, server *TCP, got chan Envelope) {
	t.Helper()
	server, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	got = make(chan Envelope, 16)
	if err := server.listen("server", recv(func(env Envelope) { got <- env })); err != nil {
		t.Fatal(err)
	}
	clientCfg.ListenOn = "127.0.0.1:0"
	if clientCfg.Directory == nil {
		clientCfg.Directory = map[Addr]string{}
	}
	clientCfg.Directory["server"] = server.ListenAddr()
	client, err = NewTCP(clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, server, got
}

func TestTCPDialTimeout(t *testing.T) {
	// A 1ns dial budget cannot complete even a loopback handshake: the
	// configured timeout must surface promptly instead of the OS connect
	// timeout (minutes).
	client, _, _ := newFaultyTCPPair(t, TCPConfig{DialTimeout: time.Nanosecond})
	start := time.Now()
	err := send(client, Envelope{From: "c", To: "server", Kind: "x"})
	if err == nil {
		t.Fatal("send succeeded with a 1ns dial timeout")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial failure took %v, want well under the OS connect timeout", elapsed)
	}
}

func TestTCPWriteDeadlineUnsticksStalledPeer(t *testing.T) {
	// A peer that accepts but never reads must cost at most the write
	// timeout, not block the sender forever.
	f := NewFaults()
	client, _, got := newFaultyTCPPair(t, TCPConfig{Faults: f, WriteTimeout: 150 * time.Millisecond})

	f.StallWrites(true)
	start := time.Now()
	err := send(client, Envelope{From: "c", To: "server", Kind: "stalled"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("send to a stalled peer succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("stalled send returned after %v, want ~150ms", elapsed)
	}

	// The broken connection was dropped; once the stall clears, the next
	// send redials and delivers.
	f.StallWrites(false)
	if err := send(client, Envelope{From: "c", To: "server", Kind: "recovered"}); err != nil {
		t.Fatalf("send after stall cleared: %v", err)
	}
	select {
	case env := <-got:
		if env.Kind != "recovered" {
			t.Errorf("delivered %q, want recovered", env.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send after stall cleared not delivered")
	}
}

func TestTCPStalledPeerDoesNotBlockHealthyPeer(t *testing.T) {
	// Head-of-line check: while a send to a stalled peer is waiting out
	// its write deadline, traffic to a healthy peer on the same link must
	// flow unimpeded.
	f := NewFaults()
	client, _, _ := newFaultyTCPPair(t, TCPConfig{Faults: f, WriteTimeout: 2 * time.Second})

	healthy, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	healthyGot := make(chan Envelope, 1)
	if err := healthy.listen("healthy", recv(func(env Envelope) { healthyGot <- env })); err != nil {
		t.Fatal(err)
	}
	client.AddRoute("healthy", healthy.ListenAddr())

	f.StallWritesTo(client.directoryLookup(t, "server"), true)

	stalledDone := make(chan error, 1)
	go func() {
		stalledDone <- send(client, Envelope{From: "c", To: "server", Kind: "wedge"})
	}()
	// Give the stalled send a moment to take its connection's lock.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	if err := send(client, Envelope{From: "c", To: "healthy", Kind: "ping"}); err != nil {
		t.Fatalf("send to healthy peer: %v", err)
	}
	select {
	case <-healthyGot:
	case <-time.After(5 * time.Second):
		t.Fatal("healthy peer never received while another peer stalled")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("healthy send took %v while a stalled peer was pending", elapsed)
	}

	select {
	case err := <-stalledDone:
		if err == nil {
			t.Error("stalled send reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled send never returned")
	}
}

// directoryLookup returns the dial target for addr (test helper).
func (t *TCP) directoryLookup(tb testing.TB, addr Addr) string {
	tb.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	hp, ok := t.directory[addr]
	if !ok {
		tb.Fatalf("no directory entry for %s", addr)
	}
	return hp
}

func TestTCPTransparentResendAfterReset(t *testing.T) {
	// An envelope that hits a connection broken while idle (peer reset)
	// must be resent over a fresh connection before its sender hears of it.
	f := NewFaults()
	client, _, got := newFaultyTCPPair(t, TCPConfig{Faults: f, RedialBackoff: time.Millisecond})

	if err := send(client, Envelope{From: "c", To: "server", Kind: "one"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("first send not delivered")
	}

	f.ResetAll()
	if err := send(client, Envelope{From: "c", To: "server", Kind: "two"}); err != nil {
		t.Fatalf("send after reset not transparently resent: %v", err)
	}
	select {
	case env := <-got:
		if env.Kind != "two" {
			t.Errorf("delivered %q, want two", env.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resent envelope not delivered")
	}
}

func TestTCPDecodeErrorCountedAndTraced(t *testing.T) {
	// Corrupt bytes on the wire must not vanish silently: the receiving
	// link counts them and records a trace event.
	reg := metrics.New()
	trc := trace.NewLog(64)
	server, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Metrics: reg, Trace: trc})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := server.listen("server", recv(func(Envelope) {})); err != nil {
		t.Fatal(err)
	}

	f := NewFaults()
	client, err := NewTCP(TCPConfig{
		ListenOn:  "127.0.0.1:0",
		Directory: map[Addr]string{"server": server.ListenAddr()},
		Faults:    f,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	f.CorruptWrites(true)
	if err := send(client, Envelope{From: "c", To: "server", Kind: "garbage"}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Counter(metricConnErrs) >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Snapshot().Counter(metricConnErrs); got == 0 {
		t.Fatal("corrupt stream not counted into conn_errors_total")
	}
	if events := trc.Filter("transport.conn_error"); len(events) == 0 {
		t.Error("corrupt stream left no trace event")
	}
}

func TestTCPSlowAccept(t *testing.T) {
	// A server slow to start reading delays delivery but loses nothing — and
	// changes nothing about the connection: however long the accept takes (the
	// second case outlasts the 2 s after which a dialer used to conclude the
	// peer was a gob-only build, and served it gob for the connection's life),
	// a wire.Marshaler body arrives in its binary form.
	for _, delay := range []time.Duration{200 * time.Millisecond, 2500 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			if delay > time.Second && testing.Short() {
				t.Skip("waits out a 2.5 s accept delay")
			}
			f := NewFaults()
			serverLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Faults: f})
			if err != nil {
				t.Fatal(err)
			}
			defer serverLink.Close()
			var gotAt time.Time
			var got []byte
			server, err := NewPeer(serverLink, "server", func(_ context.Context, _ Addr, _ string, payload []byte) (any, error) {
				gotAt, got = time.Now(), payload
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			f.SetAcceptDelay(delay)

			clientLink, err := NewTCP(TCPConfig{
				ListenOn:  "127.0.0.1:0",
				Directory: map[Addr]string{"server": serverLink.ListenAddr()},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer clientLink.Close()
			client, err := NewPeer(clientLink, "c", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			ctx, cancel := context.WithTimeout(context.Background(), delay+5*time.Second)
			defer cancel()
			start := time.Now()
			if err := client.Call(ctx, "server", "slow", &wireEcho{Text: "patience"}, nil); err != nil {
				t.Fatalf("envelope lost behind a slow accept: %v", err)
			}
			if d := gotAt.Sub(start); d < delay*3/4 {
				t.Errorf("delivered after %v, want ≥ ~%v (accept delay)", d, delay)
			}
			if _, _, ok := wire.MsgHeader(got); !ok {
				t.Errorf("payload %q does not open with the binary message header", got)
			}
		})
	}
}

// blockedLink is a Link that takes every envelope and never settles it —
// neither written nor failed, like a write that never returns: the worst-case
// transport beneath an RPC call.
type blockedLink struct{}

func (blockedLink) post(context.Context, Envelope, any, sendWaiter) error { return nil }
func (blockedLink) listen(Addr, endpoint) error                           { return nil }
func (blockedLink) Unlisten(Addr)                                         {}
func (blockedLink) Close() error                                          { return nil }

func TestPeerCallDeadlineDespiteBlockedSend(t *testing.T) {
	// Even when the transport never gets the request out, Peer.Call must
	// return at its context deadline — the acceptance bar for the stalled
	// peer scenario.
	p, err := NewPeer(blockedLink{}, "caller", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = p.Call(ctx, "anyone", "x", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Call returned after %v with a 100ms deadline", elapsed)
	}
}

func TestNetworkSetDropProb(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	delivered := make(chan Envelope, 64)
	if err := n.listen("b", recv(func(env Envelope) { delivered <- env })); err != nil {
		t.Fatal(err)
	}
	n.SetDropProb(1.0)
	for i := 0; i < 20; i++ {
		if err := send(n, Envelope{From: "a", To: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-delivered:
		t.Fatal("delivered with DropProb 1.0")
	case <-time.After(50 * time.Millisecond):
	}
	n.SetDropProb(0)
	if err := send(n, Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(2 * time.Second):
		t.Fatal("not delivered after the loss healed")
	}
}
