package transport

import (
	"context"
	"testing"
	"time"

	"agentloc/internal/raceflag"
)

// newInlinePair is newEchoPair with the server answering every request on its
// read loop with one prebuilt hotResp, so a round trip allocates only what
// the caller's side does.
func newInlinePair(t *testing.T) *Peer {
	t.Helper()
	goroutinesReturn(t)
	srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvLink.Close() })
	plain := &hotResp{Version: 7}
	inline := func(_ context.Context, r Replier, _, _ string, _ []byte) {
		r.Reply(plain, nil)
	}
	srv, err := NewServingPeer(srvLink, "inline-server", inline, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cliLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"inline-server": srvLink.ListenAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cliLink.Close() })
	client, err := NewPeer(cliLink, "inline-client", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	releasesAll(t, client)
	return client
}

// TestInlineRoundTripAllocBudget: a reply is decoded from the call slot's own
// buffer, which the next call through the slot reuses, and a request answered
// on the server's read loop costs the server nothing, so a TCP round trip
// allocates nothing at all (measured: 0). No response keeps a view of the
// buffer: core's TestFanOutAnswersOutliveLaterCalls holds the one decoder
// that once did, the discovery reply's, to copying out what it keeps.
func TestInlineRoundTripAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	client := newInlinePair(t)
	ctx := context.Background()
	req := &hotReq{Agent: "a-0123456-padded-to-24-b"}
	var resp hotResp
	var callErr error
	allocs := testing.AllocsPerRun(1000, func() {
		if err := client.Call(ctx, "inline-server", "plain", req, &resp); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		t.Fatal(callErr)
	}
	if resp.Version != 7 {
		t.Fatalf("decoded %+v, want version 7", resp)
	}
	t.Logf("%.1f allocs per inline round trip", allocs)
	if allocs > 0 {
		t.Errorf("an inline round trip allocates %.1f times, budget 0", allocs)
	}
}

// TestInlineHandlerRepliesLater: a request an InlineHandler takes may be
// answered after the handler has returned, from another goroutine: the call
// gets that answer, and Close waits until it is given.
func TestInlineHandlerRepliesLater(t *testing.T) {
	goroutinesReturn(t)
	srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srvLink.Close()
	taken := make(chan Replier, 1)
	srv, err := NewServingPeer(srvLink, "later-server", func(_ context.Context, r Replier, _, _ string, _ []byte) {
		taken <- r
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cliLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"later-server": srvLink.ListenAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cliLink.Close()
	client, err := NewPeer(cliLink, "later-client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp hotResp
	called := make(chan error, 1)
	go func() { called <- client.Call(ctx, "later-server", "later", nil, &resp) }()
	r := <-taken
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a request it took was unanswered")
	case <-time.After(50 * time.Millisecond):
	}
	r.Reply(&hotResp{Version: 9}, nil)
	<-closed
	if err := <-called; err != nil || resp.Version != 9 {
		t.Fatalf("the call ended with %+v, %v; want version 9", resp, err)
	}
}
