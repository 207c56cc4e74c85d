package transport

import (
	"bufio"
	"fmt"
	"io"

	"agentloc/internal/trace"
	"agentloc/internal/wire"
)

// A TCP connection is a sequence of wire frames (magic + version + kind +
// length + CRC32C, see internal/wire) from its first byte, in both directions,
// each carrying one encoded Envelope. Nothing is agreed per connection: the
// frame header names the stream format's version, the payload inside the
// envelope names its own codec (see Decode), and a reader that meets a frame
// it cannot read — another magic, another version, another kind — closes the
// connection. An agent call is one envelope: the envelope names the agent and
// the message's own kind, and its payload is the message.
var envMagic = [4]byte{0xA7, 'A', 'E', 'V'}

// envFrameVersion is the frame-level format version of the TCP stream. A
// reader takes this version only: version 1, whose envelopes carried no
// Agent and whose agent calls nested a second request inside the payload, is
// refused like any other.
const envFrameVersion = 2

// frameEnvelope is the one frame kind on the stream. Kinds 1 and 2 — the hello
// and helloAck of builds that negotiated a codec per connection — are retired
// and must not be reused: such a peer is rejected by kind, never misread.
const frameEnvelope = 3

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
//	str From | str To | str Agent | str Kind | uvarint Corr | flags |
//	[str ErrMsg] | [u64 TraceID, u64 SpanID, Hop] | bytes Payload
//
// The bracketed groups are present iff their flag bit is set. Payload is the
// message itself, in the codec its type selects (see Encode).
func appendEnvBody(dst []byte, env *Envelope) []byte {
	dst = wire.AppendString(dst, string(env.From))
	dst = wire.AppendString(dst, string(env.To))
	dst = wire.AppendString(dst, env.Agent)
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

// nameTable interns the addresses, agents and kinds of one connection's
// envelopes: a connection carries a handful of distinct From/To/Agent/Kind
// values — the mechanism's own agents, nearly always — millions of times.
// Only the connection's read loop touches it, so it needs no lock. A nil
// table interns nothing.
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
// To, Agent and Kind come from names.
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
	agent, err := d.Bytes(maxEnvIDLen)
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
	*env = Envelope{From: Addr(names.intern(from)), To: Addr(names.intern(to)), Agent: names.intern(agent), Kind: names.intern(kind), Corr: corr, Reply: flags&envFlagReply != 0}
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

// envReader reads a connection's envelope frames through one reusable frame
// buffer.
type envReader struct {
	frames *wire.FrameReader
	names  nameTable
}

func newEnvReader(conn io.Reader) envReader {
	return envReader{frames: wire.NewFrameReader(bufio.NewReader(conn), envMagic, envFrameVersion), names: nameTable{}}
}

// decode reads the next envelope. env.Payload aliases the decoder's buffer and
// is valid only until the next decode. The frame reader takes every version up
// to envFrameVersion; an older one is refused here, not misread.
func (r envReader) decode(env *Envelope) error {
	f, err := r.frames.Next()
	if err != nil {
		return err
	}
	if f.Version != envFrameVersion {
		return fmt.Errorf("%w: frame version %d, this build reads %d", wire.ErrUnsupportedVersion, f.Version, envFrameVersion)
	}
	if f.Kind != frameEnvelope {
		return fmt.Errorf("%w: unexpected frame kind %d", wire.ErrCorrupt, f.Kind)
	}
	return decodeEnvBody(f.Payload, env, r.names)
}
