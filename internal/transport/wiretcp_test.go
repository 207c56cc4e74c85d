package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"agentloc/internal/metrics"
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

// TestTCPRejectsForeignStreams: what an accepted connection opens with is
// untrusted. Anything but an envelope frame this build reads — noise, the gob
// envelope stream or the hello of builds that negotiated a codec, a frame of a
// newer stream format — is met by the frame reader, never by a gob decoder:
// the connection is closed and counted once, and the listener keeps serving a
// peer that speaks frames, with everything an envelope carries (trace context,
// remote error) intact.
func TestTCPRejectsForeignStreams(t *testing.T) {
	reg := metrics.New()
	trc := trace.NewLog(16)
	serverLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Metrics: reg, Trace: trc})
	if err != nil {
		t.Fatal(err)
	}
	defer serverLink.Close()
	var gotTrace trace.SpanContext
	server, err := NewPeer(serverLink, "server", func(ctx context.Context, _ Addr, _ string, payload []byte) (any, error) {
		gotTrace = trace.FromContext(ctx)
		var req echoReq
		if err := Decode(payload, &req); err != nil || req.Text == "fail" {
			return nil, errors.New("handler says no")
		}
		return echoResp{Text: "served"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	env := Envelope{From: "stranger", To: "server", Kind: "k", Corr: 1, Payload: []byte("x")}
	noise := make([]byte, 64)
	rand.New(rand.NewSource(22)).Read(noise)
	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(&env); err != nil {
		t.Fatal(err)
	}
	decodeErrs := func() uint64 { return reg.Snapshot().Counter(metricConnErrs, "reason", "decode") }
	for i, tc := range []struct {
		name   string
		stream []byte
		want   error
	}{
		{"noise", noise, wire.ErrCorrupt},
		{"gob envelope", gobStream.Bytes(), wire.ErrCorrupt},
		{"old hello", wire.AppendFrame(nil, envMagic, envFrameVersion, 1, wire.AppendUvarint(nil, wire.MsgVersion)), wire.ErrCorrupt},
		{"newer frame version", wire.AppendFrame(nil, envMagic, envFrameVersion+1, frameEnvelope, appendEnvBody(nil, &env)), wire.ErrUnsupportedVersion},
	} {
		raw, err := net.Dial("tcp", serverLink.ListenAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write(tc.stream); err != nil {
			t.Fatal(err)
		}
		_ = raw.SetReadDeadline(time.Now().Add(time.Second))
		if n, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection still open after 1 s (read %d bytes, err %v)", tc.name, n, err)
		}
		// The event is emitted before the count moves, so once the count is
		// there the event is too.
		want := uint64(i + 1)
		for deadline := time.Now().Add(time.Second); decodeErrs() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got, all := decodeErrs(), reg.Snapshot().Counter(metricConnErrs); got != want || all != want {
			t.Errorf("%s: conn_errors_total{reason=decode} = %d of %d in all, want %d of %d", tc.name, got, all, want, want)
		}
		events := trc.Filter("transport.conn_error")
		if len(events) != i+1 || !strings.Contains(events[i].Detail, tc.want.Error()) {
			t.Errorf("%s: trace events = %v, want %d, the last naming %q", tc.name, events, i+1, tc.want)
		}
	}

	clientLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"server": serverLink.ListenAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer clientLink.Close()
	client, err := NewPeer(clientLink, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp echoResp
	sc := trace.SpanContext{TraceID: 42, SpanID: 7, Sampled: true}
	if err := client.Call(trace.ContextWith(ctx, sc), "server", "echo", echoReq{Text: "hi"}, &resp); err != nil || resp.Text != "served" {
		t.Errorf("well-behaved peer after the strangers: %q, %v", resp.Text, err)
	}
	if gotTrace.TraceID != 42 || gotTrace.Hop != 1 || !gotTrace.Sampled {
		t.Errorf("trace context did not survive the framing: %+v", gotTrace)
	}
	var re *RemoteError
	if err := client.Call(ctx, "server", "echo", echoReq{Text: "fail"}, &resp); !errors.As(err, &re) || re.Msg != "handler says no" {
		t.Errorf("err = %v, want RemoteError(handler says no)", err)
	}
}

// TestTCPStalledAcceptIsClosed: an accepted connection that sends part of a
// frame header and stalls is closed once WriteTimeout passes without a whole
// first frame, and counted once, as a timeout — it does not hold its read loop
// forever.
func TestTCPStalledAcceptIsClosed(t *testing.T) {
	reg := metrics.New()
	const bound = 100 * time.Millisecond
	link, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", WriteTimeout: bound, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	raw, err := net.Dial("tcp", link.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	start := time.Now()
	if _, err := raw.Write(append(envMagic[:], 0)); err != nil { // 5 of the header's 11 bytes
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(10 * bound))
	if n, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled connection still open after %v (read %d bytes, err %v)", time.Since(start), n, err)
	}
	if took := time.Since(start); took < bound {
		t.Errorf("stalled connection closed after %v, before the %v bound", took, bound)
	}
	timeouts := func() uint64 { return reg.Snapshot().Counter(metricConnErrs, "reason", "timeout") }
	for deadline := time.Now().Add(time.Second); timeouts() < 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got, all := timeouts(), reg.Snapshot().Counter(metricConnErrs); got != 1 || all != 1 {
		t.Errorf("conn_errors_total{reason=timeout} = %d of %d in all, want 1 of 1", got, all)
	}
}

// EncodeV's codec switch: Marshaler values go binary only at wire.MsgVersion;
// Decode reads either form.
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
