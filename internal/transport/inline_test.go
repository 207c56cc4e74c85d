package transport

import (
	"context"
	"testing"

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
	inline := func(context.Context, Addr, string, string, []byte) (any, bool, error) {
		return plain, true, nil
	}
	srv, err := NewServingPeer(srvLink, "inline-server", inline, nil, nil)
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
