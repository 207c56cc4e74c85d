package transport

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"agentloc/internal/trace"
	"agentloc/internal/wire"
)

func TestEnvBodyRoundTrip(t *testing.T) {
	cases := []Envelope{
		{},
		{From: "a", To: "b", Kind: "loc.locate", Corr: 7, Payload: []byte("hi")},
		{From: "a", To: "b", Kind: "k", Corr: 1, Reply: true, ErrMsg: "boom"},
		{From: "n-1", To: "n-2", Kind: "loc.update", Corr: 9,
			Trace:   trace.SpanContext{TraceID: 0xDEAD, SpanID: 0xBEEF, Hop: 3, Sampled: true},
			Payload: []byte{0, 1, 2, 3}},
		{From: "x", To: "y", Kind: "z",
			Trace: trace.SpanContext{TraceID: 1, SpanID: 2}},
	}
	for i, want := range cases {
		body := appendEnvBody(nil, &want)
		var got Envelope
		if err := decodeEnvBody(body, &got, nil); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestEnvBodyRejectsTruncation(t *testing.T) {
	env := Envelope{From: "a", To: "b", Kind: "k", Corr: 3,
		Trace:   trace.SpanContext{TraceID: 1, SpanID: 2, Hop: 1},
		Payload: []byte("payload")}
	body := appendEnvBody(nil, &env)
	for n := 0; n < len(body); n++ {
		var got Envelope
		if err := decodeEnvBody(body[:n], &got, nil); err == nil {
			t.Fatalf("decode accepted %d-byte prefix of %d-byte body", n, len(body))
		}
	}
}

// A binary-capable dialer and acceptor handshake the codec; every envelope
// feature — correlation, replies, errors, trace context — must survive the
// binary framing end to end.
func TestTCPBinaryHandshake(t *testing.T) {
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

	var gotTrace trace.SpanContext
	server, err := NewPeer(serverLink, "server", func(ctx context.Context, _ Addr, _ string, payload []byte) (any, error) {
		gotTrace = trace.FromContext(ctx)
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		if req.Text == "fail" {
			return nil, errors.New("handler says no")
		}
		return echoResp{Text: "bin:" + req.Text}, nil
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
	sc := trace.SpanContext{TraceID: 42, SpanID: 7, Sampled: true}
	var resp echoResp
	if err := client.Call(trace.ContextWith(ctx, sc), "server", "echo", echoReq{Text: "hello"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "bin:hello" {
		t.Errorf("resp = %q", resp.Text)
	}
	if gotTrace.TraceID != 42 || gotTrace.Hop != 1 || !gotTrace.Sampled {
		t.Errorf("trace did not survive binary framing: %+v", gotTrace)
	}

	if err := client.Call(ctx, "server", "echo", echoReq{Text: "fail"}, &resp); err == nil {
		t.Fatal("remote error lost in binary framing")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "handler says no" {
			t.Errorf("err = %v, want RemoteError(handler says no)", err)
		}
	}

	// Both links negotiated: each side must now report the binary version
	// for the other.
	if v := clientLink.WireVersion(ctx, "server"); v != wire.MsgVersion {
		t.Errorf("client reports version %d for server, want %d", v, wire.MsgVersion)
	}
	// The server knows the client only via the learned reply route.
	if v := serverLink.WireVersion(ctx, "client"); v != wire.MsgVersion {
		t.Errorf("server reports version %d for learned client, want %d", v, wire.MsgVersion)
	}
}

// A WireGob peer behaves like a build that predates the codec: it never
// answers the hello, the dialer times out, falls back, and the RPCs ride
// gob — in both directions.
func TestTCPFallbackToGobPeer(t *testing.T) {
	oldLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Wire: WireGob})
	if err != nil {
		t.Fatal(err)
	}
	defer oldLink.Close()
	newLink, err := NewTCP(TCPConfig{
		ListenOn:         "127.0.0.1:0",
		Directory:        map[Addr]string{"old": oldLink.ListenAddr()},
		HandshakeTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer newLink.Close()
	oldLink.AddRoute("new", newLink.ListenAddr())

	oldPeer, err := NewPeer(oldLink, "old", func(_ context.Context, _ Addr, _ string, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Text: "old:" + req.Text}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oldPeer.Close()
	newPeer, err := NewPeer(newLink, "new", func(_ context.Context, _ Addr, _ string, payload []byte) (any, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Text: "new:" + req.Text}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer newPeer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var resp echoResp
	if err := newPeer.Call(ctx, "old", "echo", echoReq{Text: "ping"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "old:ping" {
		t.Errorf("resp = %q", resp.Text)
	}
	if v := newLink.WireVersion(ctx, "old"); v != 0 {
		t.Errorf("new link reports version %d for old peer, want 0 (gob)", v)
	}
	// Old peer calling the new peer: the new acceptor sees a gob stream
	// from byte 0 and serves it.
	if err := oldPeer.Call(ctx, "new", "echo", echoReq{Text: "pong"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "new:pong" {
		t.Errorf("resp = %q", resp.Text)
	}
}

// EncodeV's codec switch: Marshaler values go binary only at a negotiated
// version; everything gob-decodes transparently either way.
type wireEcho struct {
	Text string
}

func (e *wireEcho) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, e.Text)
}

func (e *wireEcho) DecodeWire(d *wire.Dec) error {
	s, err := d.String(1 << 20)
	if err != nil {
		return err
	}
	e.Text = s
	return nil
}

func TestEncodeVCodecSwitch(t *testing.T) {
	v := &wireEcho{Text: "payload"}

	bin, err := EncodeV(v, wire.MsgVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := wire.MsgHeader(bin); !ok {
		t.Fatal("negotiated encode did not produce a binary payload")
	}
	var got wireEcho
	if err := Decode(bin, &got); err != nil {
		t.Fatal(err)
	}
	if got.Text != "payload" {
		t.Errorf("binary round trip = %q", got.Text)
	}

	g, err := EncodeV(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := wire.MsgHeader(g); ok {
		t.Fatal("version-0 encode produced a binary payload")
	}
	got = wireEcho{}
	if err := Decode(g, &got); err != nil {
		t.Fatal(err)
	}
	if got.Text != "payload" {
		t.Errorf("gob round trip = %q", got.Text)
	}

	// Trailing bytes after a well-formed binary body are corruption.
	if err := Decode(append(bin, 0xFF), &got); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("trailing-byte decode = %v, want ErrCorrupt", err)
	}
	// A binary payload for a type without a decoder must error, not panic.
	var plain echoReq
	if err := Decode(bin, &plain); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("decoderless decode = %v, want ErrCorrupt", err)
	}
}

func FuzzEnvelopeDecode(f *testing.F) {
	seeds := []Envelope{
		{From: "a", To: "b", Kind: "loc.locate", Corr: 1, Payload: []byte("x")},
		{From: "n1", To: "n2", Kind: "k", Reply: true, ErrMsg: "e",
			Trace: trace.SpanContext{TraceID: 5, SpanID: 6, Hop: 2, Sampled: true}},
	}
	for _, env := range seeds {
		f.Add(appendEnvBody(nil, &env))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var env Envelope
		if err := decodeEnvBody(data, &env, nil); err != nil {
			return
		}
		// Whatever decoded must re-encode to the same bytes: the format has
		// exactly one encoding per envelope.
		round := appendEnvBody(nil, &env)
		var env2 Envelope
		if err := decodeEnvBody(round, &env2, nameTable{}); err != nil {
			t.Fatalf("re-decode of re-encoded envelope failed: %v", err)
		}
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("round trip diverged: %+v vs %+v", env, env2)
		}
	})
}
