package transport

import (
	"context"
	"fmt"
	"testing"

	"agentloc/internal/raceflag"
	"agentloc/internal/wire"
)

// viewResp keeps its text as a view of the reply (wire.Dec.View), the way a
// discovery match keeps its agent id, and says so.
type viewResp struct{ Text string }

func (r *viewResp) AppendWire(dst []byte) []byte { return wire.AppendString(dst, r.Text) }
func (r *viewResp) DecodeWire(d *wire.Dec) error {
	s, err := d.View(1 << 16)
	r.Text = s
	return err
}
func (*viewResp) KeepsViews() {}

// newInlinePair is newEchoPair with the server answering on its read loop:
// kind "view" echoes the request's text as a viewResp, anything else is one
// prebuilt hotResp, so a round trip allocates only what the caller's side
// does.
func newInlinePair(t *testing.T) *Peer {
	t.Helper()
	goroutinesReturn(t)
	srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvLink.Close() })
	plain := &hotResp{Version: 7}
	inline := func(_ context.Context, _ Addr, _, kind string, payload []byte) (any, bool, error) {
		if kind != "view" {
			return plain, true, nil
		}
		var req hotReq
		err := Decode(payload, &req)
		return &viewResp{Text: req.Agent}, true, err
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

// TestViewKeeperTakesItsReplyBuffer: a reply is decoded from the call slot's
// own buffer, which the next call through the slot reuses. A response that
// keeps views of its payload (ViewKeeper) takes that buffer with it, so it
// still reads its own bytes after the same Peer has made a hundred more calls
// of equal size; a response that keeps none leaves the buffer to be reused, so
// a round trip allocates nothing at all.
func TestViewKeeperTakesItsReplyBuffer(t *testing.T) {
	client := newInlinePair(t)
	ctx := context.Background()
	var first viewResp
	if err := client.Call(ctx, "inline-server", "view", &hotReq{Agent: "first-reply-bytes"}, &first); err != nil {
		t.Fatal(err)
	}
	for i := range 100 {
		var later viewResp
		if err := client.Call(ctx, "inline-server", "view", &hotReq{Agent: fmt.Sprintf("later-reply-%05d", i)}, &later); err != nil {
			t.Fatal(err)
		}
		var plain hotResp
		if err := client.Call(ctx, "inline-server", "plain", &hotReq{Agent: "later-request-bytes"}, &plain); err != nil {
			t.Fatal(err)
		}
	}
	if first.Text != "first-reply-bytes" {
		t.Errorf("the first reply reads %q after 200 more calls, want %q", first.Text, "first-reply-bytes")
	}

	if raceflag.Enabled {
		return // the race detector's instrumentation allocates
	}
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
	if allocs > 0 {
		t.Errorf("a round trip whose response keeps no views allocates %.1f times, want 0", allocs)
	}
}
