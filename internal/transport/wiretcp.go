package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"time"

	"agentloc/internal/trace"
	"agentloc/internal/wire"
)

// The binary TCP stream is a sequence of wire frames (magic + version +
// kind + length + CRC32C, see internal/wire). Three frame kinds exist:
//
//	hello    — dialer → acceptor, body: uvarint max message version
//	helloAck — acceptor → dialer, body: uvarint chosen message version
//	envelope — either direction, body: one encoded Envelope
//
// A dialer opens with hello and waits (briefly) for helloAck; from then on
// both sides speak envelope frames at the chosen version. An old peer never
// sends the ack — its gob decoder just sits on the unparseable hello — so
// the dialer times out, remembers the target as gob-only, and redials
// speaking plain gob from the first byte, which is exactly the stream an
// old build expects. The acceptor distinguishes the two stream shapes by
// peeking at the first bytes: the frame magic's lead byte can never open a
// gob stream (see wire.MsgHeader).
var envMagic = [4]byte{0xA7, 'A', 'E', 'V'}

// envFrameVersion is the frame-level format version of the TCP stream.
const envFrameVersion = 1

// Frame kinds on the binary TCP stream.
const (
	frameHello    = 1
	frameHelloAck = 2
	frameEnvelope = 3
)

// DefaultHandshakeTimeout bounds the wait for helloAck on a fresh dial. On
// a LAN the ack arrives in microseconds; the timeout only matters when the
// peer is an old build that will never answer, where it is the price of
// discovering that once per target.
const DefaultHandshakeTimeout = 2 * time.Second

// WireMode selects the codec policy of a TCP link.
type WireMode int

const (
	// WireAuto (the default) handshakes the binary envelope codec with each
	// peer and falls back to gob for peers that don't speak it.
	WireAuto WireMode = iota
	// WireGob pins the link to gob envelopes exactly as builds before the
	// binary codec behaved: no handshake offered, none answered. Useful to
	// stand in for an old peer in mixed-version tests, and as an escape
	// hatch if the negotiation itself misbehaves in the field.
	WireGob
)

// Envelope body field limits. Addresses and kinds are short identifiers;
// a declared length beyond these marks a corrupt frame.
const (
	maxEnvIDLen  = 1 << 16
	maxEnvErrLen = 1 << 20
)

// Envelope flag bits.
const (
	envFlagReply   = 1 << 0
	envFlagErr     = 1 << 1
	envFlagTraced  = 1 << 2
	envFlagSampled = 1 << 3
)

// appendEnvBody appends the binary encoding of env:
//
//	str From | str To | str Kind | uvarint Corr | flags |
//	[str ErrMsg] | [u64 TraceID, u64 SpanID, Hop] | bytes Payload
//
// The bracketed groups are present iff their flag bit is set.
func appendEnvBody(dst []byte, env *Envelope) []byte {
	dst = wire.AppendString(dst, string(env.From))
	dst = wire.AppendString(dst, string(env.To))
	dst = wire.AppendString(dst, env.Kind)
	dst = wire.AppendUvarint(dst, env.Corr)
	var flags byte
	if env.Reply {
		flags |= envFlagReply
	}
	if env.ErrMsg != "" {
		flags |= envFlagErr
	}
	traced := env.Trace != (trace.SpanContext{})
	if traced {
		flags |= envFlagTraced
		if env.Trace.Sampled {
			flags |= envFlagSampled
		}
	}
	dst = append(dst, flags)
	if env.ErrMsg != "" {
		dst = wire.AppendString(dst, env.ErrMsg)
	}
	if traced {
		dst = wire.AppendU64(dst, env.Trace.TraceID)
		dst = wire.AppendU64(dst, env.Trace.SpanID)
		dst = append(dst, env.Trace.Hop)
	}
	return wire.AppendBytes(dst, env.Payload)
}

// nameTable interns the addresses and kinds of one connection's envelopes: a
// connection carries a handful of distinct From/To/Kind values, millions of
// times. Only the connection's read loop touches it, so it needs no lock. A
// nil table interns nothing.
type nameTable map[string]string

// maxConnNames bounds a nameTable; past it (a peer inventing addresses) names
// are plain allocations.
const maxConnNames = 1 << 10

func (n nameTable) intern(b []byte) string {
	if s, ok := n[string(b)]; ok {
		return s
	}
	s := string(b)
	if n != nil && len(n) < maxConnNames {
		n[s] = s
	}
	return s
}

// decodeEnvBody decodes one envelope body. env.Payload aliases data; From,
// To and Kind come from names.
func decodeEnvBody(data []byte, env *Envelope, names nameTable) error {
	d := wire.NewDec(data)
	from, err := d.Bytes(maxEnvIDLen)
	if err != nil {
		return err
	}
	to, err := d.Bytes(maxEnvIDLen)
	if err != nil {
		return err
	}
	kind, err := d.Bytes(maxEnvIDLen)
	if err != nil {
		return err
	}
	corr, err := d.Uvarint()
	if err != nil {
		return err
	}
	flags, err := d.Byte()
	if err != nil {
		return err
	}
	*env = Envelope{From: Addr(names.intern(from)), To: Addr(names.intern(to)), Kind: names.intern(kind), Corr: corr, Reply: flags&envFlagReply != 0}
	if flags&envFlagErr != 0 {
		if env.ErrMsg, err = d.String(maxEnvErrLen); err != nil {
			return err
		}
	}
	if flags&envFlagTraced != 0 {
		if env.Trace.TraceID, err = d.U64(); err != nil {
			return err
		}
		if env.Trace.SpanID, err = d.U64(); err != nil {
			return err
		}
		if env.Trace.Hop, err = d.Byte(); err != nil {
			return err
		}
		env.Trace.Sampled = flags&envFlagSampled != 0
	}
	if env.Payload, err = d.Bytes(wire.MaxFrameLen); err != nil {
		return err
	}
	if len(env.Payload) == 0 {
		env.Payload = nil
	}
	return d.Done()
}

// envDecoder reads the next envelope off a connection's stream; the two
// implementations are the gob stream of old peers and the framed binary
// stream. borrowed reports that env.Payload aliases the decoder's buffer and
// is valid only until the next decode.
type envDecoder interface {
	decode(env *Envelope) (borrowed bool, err error)
}

type gobEnvDecoder struct{ dec gobDecoder }

// gobDecoder matches *gob.Decoder; an interface keeps the struct testable.
type gobDecoder interface{ Decode(v any) error }

func (g gobEnvDecoder) decode(env *Envelope) (bool, error) { return false, g.dec.Decode(env) }

// binEnvDecoder reads envelope frames through one reusable frame buffer.
type binEnvDecoder struct {
	frames *wire.FrameReader
	names  nameTable
}

func newBinEnvDecoder(r *bufio.Reader) binEnvDecoder {
	return binEnvDecoder{frames: wire.NewFrameReader(r, envMagic, envFrameVersion), names: nameTable{}}
}

func (b binEnvDecoder) decode(env *Envelope) (bool, error) {
	f, err := b.frames.Next()
	if err != nil {
		return false, err
	}
	if f.Kind != frameEnvelope {
		return false, fmt.Errorf("%w: unexpected frame kind %d mid-stream", wire.ErrCorrupt, f.Kind)
	}
	return true, decodeEnvBody(f.Payload, env, b.names)
}

// writeFrame writes one handshake frame to a connection nobody else writes
// to yet, under the write deadline if one is configured. The deadline is
// cleared again: an expired one fails every later write on the socket, whether
// or not that write would have had to wait.
func (t *TCP) writeFrame(conn net.Conn, kind byte, body []byte) error {
	if t.writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
		defer func() { _ = conn.SetWriteDeadline(time.Time{}) }()
	}
	return wire.WriteFrame(conn, envMagic, envFrameVersion, kind, body)
}

// clientHandshake offers the binary codec on a fresh dialed connection:
// hello out, helloAck back under the handshake deadline (bounded further by
// ctx). It returns the negotiated message version and the buffered reader
// that now owns the connection's read side. Any failure — timeout, EOF, a
// non-ack response — reports err; the caller treats that as "old peer" and
// falls back.
func (t *TCP) clientHandshake(ctx context.Context, conn net.Conn) (uint16, *bufio.Reader, error) {
	hello := wire.AppendUvarint(nil, wire.MsgVersion)
	if err := t.writeFrame(conn, frameHello, hello); err != nil {
		return 0, nil, fmt.Errorf("hello write: %w", err)
	}
	var deadline time.Time
	if t.handshakeTimeout > 0 {
		deadline = time.Now().Add(t.handshakeTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		_ = conn.SetReadDeadline(deadline)
		defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	}

	br := bufio.NewReader(conn)
	f, err := wire.ReadFrame(br, envMagic, envFrameVersion)
	if err != nil {
		return 0, nil, fmt.Errorf("hello ack: %w", err)
	}
	if f.Kind != frameHelloAck {
		return 0, nil, fmt.Errorf("%w: frame kind %d in place of hello ack", wire.ErrCorrupt, f.Kind)
	}
	chosen, err := wire.NewDec(f.Payload).Uvarint()
	if err != nil {
		return 0, nil, fmt.Errorf("hello ack: %w", err)
	}
	if chosen == 0 || chosen > wire.MsgVersion {
		return 0, nil, fmt.Errorf("%w: peer chose message version %d", wire.ErrCorrupt, chosen)
	}
	return uint16(chosen), br, nil
}

// serverHandshake answers a peeked hello: it consumes the hello frame and
// acks with the highest version both sides speak.
func (t *TCP) serverHandshake(conn net.Conn, br *bufio.Reader) (uint16, error) {
	f, err := wire.ReadFrame(br, envMagic, envFrameVersion)
	if err != nil {
		return 0, fmt.Errorf("hello read: %w", err)
	}
	if f.Kind != frameHello {
		return 0, fmt.Errorf("%w: frame kind %d in place of hello", wire.ErrCorrupt, f.Kind)
	}
	theirs, err := wire.NewDec(f.Payload).Uvarint()
	if err != nil || theirs == 0 {
		return 0, fmt.Errorf("%w: malformed hello version", wire.ErrCorrupt)
	}
	chosen := uint16(theirs)
	if chosen > wire.MsgVersion {
		chosen = wire.MsgVersion
	}
	ack := wire.AppendUvarint(nil, uint64(chosen))
	if err := t.writeFrame(conn, frameHelloAck, ack); err != nil {
		return 0, fmt.Errorf("hello ack write: %w", err)
	}
	return chosen, nil
}
