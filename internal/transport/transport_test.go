package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/trace"
)

// recv is an endpoint for tests of the link itself: it hands every envelope
// delivered to it, payload owned, to the func.
type recv func(Envelope)

func (r recv) deliver(env Envelope, borrowed bool) {
	if borrowed {
		env.Payload = bytes.Clone(env.Payload)
	}
	r(env)
}

func (recv) connLost(*tcpConn, error) {}

// sent is a sendWaiter that hands on a posted envelope's fate.
type sent chan error

func (s sent) sendDone(_ uint64, _ *tcpConn, err error) { s <- err }

// send posts env on the link and waits for its fate: the error that kept it
// off the wire, or nil once it is written (handed over, on a Network).
func send(l Link, env Envelope) error {
	w := make(sent, 1)
	if err := l.post(context.Background(), env, nil, w); err != nil {
		return err
	}
	return <-w
}

func TestNetworkDeliver(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()

	got := make(chan Envelope, 1)
	if err := n.listen("b", recv(func(env Envelope) { got <- env })); err != nil {
		t.Fatal(err)
	}
	if err := send(n, Envelope{From: "a", To: "b", Kind: "ping"}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if env.Kind != "ping" || env.From != "a" {
			t.Errorf("got %+v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestNetworkUnknownAddr(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	if err := send(n, Envelope{From: "a", To: "nope"}); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("error = %v, want ErrUnknownAddr", err)
	}
}

func TestNetworkDoubleListen(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	if err := n.listen("a", recv(func(Envelope) {})); err != nil {
		t.Fatal(err)
	}
	if err := n.listen("a", recv(func(Envelope) {})); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("error = %v, want ErrAddrInUse", err)
	}
	n.Unlisten("a")
	if err := n.listen("a", recv(func(Envelope) {})); err != nil {
		t.Errorf("listen after Unlisten: %v", err)
	}
}

func TestNetworkClosed(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := n.listen("a", recv(func(Envelope) {})); !errors.Is(err, ErrClosed) {
		t.Errorf("listen on closed = %v, want ErrClosed", err)
	}
	if err := send(n, Envelope{To: "a"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send on closed = %v, want ErrClosed", err)
	}
}

func TestNetworkLatency(t *testing.T) {
	n := NewNetwork(NetworkConfig{Latency: FixedLatency(30 * time.Millisecond)})
	defer n.Close()
	got := make(chan time.Time, 1)
	if err := n.listen("b", recv(func(Envelope) { got <- time.Now() })); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := send(n, Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if d := at.Sub(start); d < 25*time.Millisecond {
			t.Errorf("delivered after %v, want ≥ ~30ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestNetworkDropAll(t *testing.T) {
	n := NewNetwork(NetworkConfig{DropProb: 1.0})
	defer n.Close()
	var count atomic.Int32
	if err := n.listen("b", recv(func(Envelope) { count.Add(1) })); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := send(n, Envelope{From: "a", To: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := count.Load(); got != 0 {
		t.Errorf("delivered %d messages with DropProb=1", got)
	}
}

func TestNetworkPartitionAndHeal(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	var count atomic.Int32
	if err := n.listen("b", recv(func(Envelope) { count.Add(1) })); err != nil {
		t.Fatal(err)
	}
	n.Partition("a", "b")
	if err := send(n, Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := count.Load(); got != 0 {
		t.Fatalf("partition leaked %d messages", got)
	}
	n.Heal("a", "b")
	if err := send(n, Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 1 {
		t.Errorf("after heal: %d deliveries, want 1", count.Load())
	}
}

func TestNetworkHealAll(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	n.Partition("a", "b")
	n.Partition("a", "c")
	n.HealAll()
	var count atomic.Int32
	if err := n.listen("b", recv(func(Envelope) { count.Add(1) })); err != nil {
		t.Fatal(err)
	}
	if err := send(n, Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 1 {
		t.Error("HealAll did not restore connectivity")
	}
}

func TestNetworkFakeClockLatency(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	n := NewNetwork(NetworkConfig{Clock: fc, Latency: FixedLatency(10 * time.Second)})
	defer n.Close()
	var count atomic.Int32
	if err := n.listen("b", recv(func(Envelope) { count.Add(1) })); err != nil {
		t.Fatal(err)
	}
	if err := send(n, Envelope{From: "a", To: "b"}); err != nil {
		t.Fatal(err)
	}
	for fc.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 0 {
		t.Fatal("delivered before fake time advanced")
	}
	fc.Advance(10 * time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 1 {
		t.Error("not delivered after fake time advanced")
	}
}

type echoReq struct{ Text string }
type echoResp struct{ Text string }

func newPeerPair(t *testing.T, h RequestHandler) (*Peer, *Peer, *Network) {
	t.Helper()
	goroutinesReturn(t)
	n := NewNetwork(NetworkConfig{})
	t.Cleanup(func() { n.Close() })
	server, err := NewPeer(n, "server", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	client, err := NewPeer(n, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	releasesAll(t, server)
	releasesAll(t, client)
	return client, server, n
}

// goroutinesReturn has the test end by proving it ended every goroutine it
// started: the count must fall back to where it stood when the check was
// installed. Install it before anything the test's cleanups close, so that it
// runs after all of them. It polls up to a deadline, since a goroutine told
// to stop may take a moment to exit; a leaked one never does.
func goroutinesReturn(tb testing.TB) {
	before := runtime.NumGoroutine()
	tb.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				tb.Errorf("%d goroutines still running after the test, %d before it:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// releasesAll fails the test unless p's calls have all left its pending set
// shortly after the test: a call's Wait takes its slot out however the call
// ends, so one still registered is a leak. Register it after p's Close, which
// empties the set, so that it runs first.
func releasesAll(tb testing.TB, p *Peer) {
	tb.Cleanup(func() {
		for deadline := time.Now().Add(2 * time.Second); p.Outstanding() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				tb.Errorf("%s: %d calls still registered after the test", p.Addr(), p.Outstanding())
				return
			}
		}
	})
}

func TestPeerCall(t *testing.T) {
	client, _, _ := newPeerPair(t, func(_ context.Context, from Addr, kind string, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		if from != "client" || kind != "echo" {
			return nil, fmt.Errorf("unexpected from=%s kind=%s", from, kind)
		}
		return echoResp{Text: "echo:" + req.Text}, nil
	})
	var resp echoResp
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := client.Call(ctx, "server", "echo", echoReq{Text: "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "echo:hi" {
		t.Errorf("resp = %q", resp.Text)
	}
}

func TestPeerCallRemoteError(t *testing.T) {
	client, _, _ := newPeerPair(t, func(context.Context, Addr, string, []byte) (any, error) {
		return nil, errors.New("boom")
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := client.Call(ctx, "server", "x", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *RemoteError", err)
	}
	if re.Msg != "boom" {
		t.Errorf("Msg = %q, want boom", re.Msg)
	}
	if re.Error() == "" {
		t.Error("empty Error()")
	}
}

func TestPeerCallTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	client, _, _ := newPeerPair(t, func(context.Context, Addr, string, []byte) (any, error) {
		<-block
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := client.Call(ctx, "server", "x", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want deadline exceeded", err)
	}
}

// Calls posted together with Go share a deadline and are waited one after
// another: a reply that arrived while an earlier call waited the deadline out
// is still collected, and neither call leaves a pending entry behind.
func TestPeerGoCollectsRepliesPastSharedDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	client, _, _ := newPeerPair(t, func(_ context.Context, _ Addr, kind string, _ []byte) (any, error) {
		if kind == "stall" {
			<-block
		}
		return echoResp{Text: kind}, nil
	})
	for i := 0; i < 20; i++ {
		dc := WithDeadline(context.Background(), time.Now().Add(20*time.Millisecond))
		var stalled, quick echoResp
		first := client.Go(dc, "server", "", "stall", nil, &stalled)
		second := client.Go(dc, "server", "", "quick", nil, &quick)
		if err := first.Wait(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stalled call = %v, want deadline exceeded", err)
		}
		if err := second.Wait(); err != nil || quick.Text != "quick" {
			t.Fatalf("answered call after the deadline = %q, %v; want its reply", quick.Text, err)
		}
		dc.Release()
		if n := client.Outstanding(); n != 0 {
			t.Fatalf("%d calls still pending", n)
		}
	}
}

func TestPeerCallToUnknownAddr(t *testing.T) {
	client, _, _ := newPeerPair(t, nil)
	ctx := context.Background()
	if err := client.Call(ctx, "ghost", "x", nil, nil); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("error = %v, want ErrUnknownAddr", err)
	}
}

func TestPeerCallNilHandler(t *testing.T) {
	// The client peer has no handler; calling *it* must return a remote
	// error rather than hang.
	_, server, _ := newPeerPair(t, func(context.Context, Addr, string, []byte) (any, error) { return nil, nil })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := server.Call(ctx, "client", "x", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Errorf("error = %v, want *RemoteError", err)
	}
}

func TestPeerConcurrentCalls(t *testing.T) {
	client, _, _ := newPeerPair(t, func(_ context.Context, _ Addr, _ string, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Text: req.Text}, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			want := fmt.Sprintf("msg-%d", i)
			var resp echoResp
			if err := client.Call(ctx, "server", "echo", echoReq{Text: want}, &resp); err != nil {
				errs <- err
				return
			}
			if resp.Text != want {
				errs <- fmt.Errorf("cross-talk: got %q want %q", resp.Text, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPeerClosedCall(t *testing.T) {
	client, _, _ := newPeerPair(t, nil)
	client.Close()
	if err := client.Call(context.Background(), "server", "x", nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("error = %v, want ErrClosed", err)
	}
}

func TestEncodeDecodeNil(t *testing.T) {
	data, err := Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Errorf("Encode(nil) = %v, want nil", data)
	}
	var v echoReq
	if err := Decode(nil, &v); err != nil {
		t.Errorf("Decode(nil): %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	serverLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer serverLink.Close()

	clientLink, err := NewTCP(TCPConfig{
		ListenOn:  "127.0.0.1:0",
		Directory: map[Addr]string{"server": serverLink.ListenAddr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clientLink.Close()
	serverLink.AddRoute("client", clientLink.ListenAddr())

	server, err := NewPeer(serverLink, "server", func(_ context.Context, _ Addr, _ string, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Text: "tcp:" + req.Text}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := NewPeer(clientLink, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp echoResp
	if err := client.Call(ctx, "server", "echo", echoReq{Text: "over-the-wire"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "tcp:over-the-wire" {
		t.Errorf("resp = %q", resp.Text)
	}
}

func TestTCPLoopback(t *testing.T) {
	link, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	server, err := NewPeer(link, "s", func(context.Context, Addr, string, []byte) (any, error) {
		return echoResp{Text: "local"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewPeer(link, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp echoResp
	if err := client.Call(ctx, "s", "x", nil, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "local" {
		t.Errorf("resp = %q", resp.Text)
	}
}

func TestTCPUnknownAddr(t *testing.T) {
	link, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	if err := send(link, Envelope{To: "ghost"}); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("error = %v, want ErrUnknownAddr", err)
	}
}

func TestTCPClosed(t *testing.T) {
	link, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
	if err := send(link, Envelope{To: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after Close = %v, want ErrClosed", err)
	}
	if err := link.listen("x", recv(func(Envelope) {})); !errors.Is(err, ErrClosed) {
		t.Errorf("listen after Close = %v, want ErrClosed", err)
	}
	if err := link.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestTCPReplyRidesToPeerWithoutEntry(t *testing.T) {
	// The server has NO directory entry for the client; its replies must
	// flow back over the connection the request arrived on.
	serverLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer serverLink.Close()

	clientLink, err := NewTCP(TCPConfig{
		ListenOn:  "127.0.0.1:0",
		Directory: map[Addr]string{"server": serverLink.ListenAddr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clientLink.Close()

	server, err := NewPeer(serverLink, "server", func(_ context.Context, _ Addr, _ string, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Text: "learned:" + req.Text}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := NewPeer(clientLink, "ephemeral-client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp echoResp
	if err := client.Call(ctx, "server", "echo", echoReq{Text: "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "learned:hi" {
		t.Errorf("resp = %q", resp.Text)
	}
}

// TestTCPLearnedRouteCallsBack: a peer without a directory entry at the other
// end — a node given only the other's address, as README's node-0 is node-2's
// — can be called once it has called: the request goes out on the connection
// it spoke on (TCP.learned). Before it speaks there is no route to it.
func TestTCPLearnedRouteCallsBack(t *testing.T) {
	serverLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer serverLink.Close()
	clientLink, err := NewTCP(TCPConfig{
		ListenOn:  "127.0.0.1:0",
		Directory: map[Addr]string{"server": serverLink.ListenAddr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clientLink.Close()
	echo := func(tag string) RequestHandler {
		return func(_ context.Context, _ Addr, _ string, payload []byte) (any, error) {
			var req echoReq
			if err := Decode(payload, &req); err != nil {
				return nil, err
			}
			return echoResp{Text: tag + req.Text}, nil
		}
	}
	server, err := NewPeer(serverLink, "server", echo("server:"))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewPeer(clientLink, "client", echo("client:"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Call(ctx, "client", "echo", echoReq{Text: "early"}, nil); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("call to a peer that never spoke = %v, want ErrUnknownAddr", err)
	}
	var resp echoResp
	if err := client.Call(ctx, "server", "echo", echoReq{Text: "hi"}, &resp); err != nil || resp.Text != "server:hi" {
		t.Fatalf("client's call = %q, %v", resp.Text, err)
	}
	if err := server.Call(ctx, "client", "echo", echoReq{Text: "back"}, &resp); err != nil || resp.Text != "client:back" {
		t.Fatalf("call back over the learned route = %q, %v", resp.Text, err)
	}
}

func TestLANLatencyLoopbackIsFree(t *testing.T) {
	f := LANLatency(10 * time.Millisecond)
	if got := f("a", "a"); got != 0 {
		t.Errorf("loopback latency = %v, want 0", got)
	}
	if got := f("a", "b"); got != 10*time.Millisecond {
		t.Errorf("cross latency = %v, want 10ms", got)
	}
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	// A cached outgoing connection goes stale when the peer restarts; the
	// next send must fail once at most and a redial must succeed.
	serverLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := serverLink.ListenAddr()

	clientLink, err := NewTCP(TCPConfig{
		ListenOn:  "127.0.0.1:0",
		Directory: map[Addr]string{"server": addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clientLink.Close()

	got := make(chan string, 8)
	handler := recv(func(env Envelope) { got <- env.Kind })
	if err := serverLink.listen("server", handler); err != nil {
		t.Fatal(err)
	}
	if err := send(clientLink, Envelope{From: "c", To: "server", Kind: "one"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("first send not delivered")
	}

	// Restart the server on the same port.
	if err := serverLink.Close(); err != nil {
		t.Fatal(err)
	}
	serverLink2, err := NewTCP(TCPConfig{ListenOn: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer serverLink2.Close()
	if err := serverLink2.listen("server", handler); err != nil {
		t.Fatal(err)
	}

	// The stale cached connection may eat one send; within a couple of
	// attempts the redial path must deliver again.
	deadline := time.Now().Add(10 * time.Second)
	delivered := false
	for time.Now().Before(deadline) && !delivered {
		_ = send(clientLink, Envelope{From: "c", To: "server", Kind: "two"})
		select {
		case <-got:
			delivered = true
		case <-time.After(200 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("sends never recovered after peer restart")
	}
}

func TestPeerCallReturnsPromptlyWhenCtxExpiresMidRedial(t *testing.T) {
	// A call whose request hits a broken cached connection must not sit
	// through the redial pause — a minute here — after its context expired:
	// the request is the link's to resend, the call waits only for its ctx.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	link, err := NewTCP(TCPConfig{
		ListenOn:      "127.0.0.1:0",
		Directory:     map[Addr]string{"server": deadAddr},
		RedialBackoff: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	a, b := net.Pipe()
	b.Close()
	a.Close()
	link.mu.Lock()
	link.conns[deadAddr] = &tcpConn{conn: a}
	link.mu.Unlock()

	peer, err := NewPeer(link, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- peer.Call(ctx, "server", "x", nil, nil) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Call succeeded against a dead peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not return after its context expired mid-redial")
	}
}

// TestPeerCallPropagatesTrace pins the tracing wire contract: a span
// context on the caller's ctx rides the envelope with its hop count
// incremented, reaches the handler through ITS ctx, and an untraced call
// delivers the zero context.
func TestPeerCallPropagatesTrace(t *testing.T) {
	got := make(chan trace.SpanContext, 1)
	client, _, _ := newPeerPair(t, func(ctx context.Context, _ Addr, _ string, _ []byte) (any, error) {
		got <- trace.FromContext(ctx)
		return echoResp{}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	sc := trace.SpanContext{TraceID: 42, SpanID: 7, Hop: 3, Sampled: true}
	var resp echoResp
	if err := client.Call(trace.ContextWith(ctx, sc), "server", "echo", echoReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	want := sc
	want.Hop = 4 // one network crossing
	if g := <-got; g != want {
		t.Errorf("handler saw %+v, want %+v", g, want)
	}

	// No trace on the caller's ctx -> zero context at the handler, so the
	// receiving node starts no spans.
	if err := client.Call(ctx, "server", "echo", echoReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	if g := <-got; g.Valid() {
		t.Errorf("untraced call delivered %+v", g)
	}
}
