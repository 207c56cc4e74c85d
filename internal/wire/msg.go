// Hot-path message codec substrate. Durable artifacts use the framed form
// of wire.go (magic + version + CRC, see AppendFrame); RPC payloads use the
// lighter form here — a 4-byte header and a hand-rolled body — because the
// transport beneath them is already reliable and checksummed, so a CRC per
// message would buy nothing but cycles.
//
// A binary message payload is:
//
//	0xA7 'A' 'L' | version uint8 | body
//
// The first byte tells it apart from encoding/gob: a fresh gob stream begins
// with a message-length varint whose first byte is either a small value
// (< 0x80) or a multi-byte-length marker (>= 0xF8), so 0xA7 can never open a
// gob payload. Messages with a hand-rolled codec travel in this form only,
// the control plane's in gob only; transport.Decode refuses either form for
// a type of the other.
package wire

import (
	"fmt"
	"sync"
)

// MsgVersion is the hot-path message format version this build writes into
// every binary payload's header, and the highest it reads: the version
// travels with the message, nothing is agreed per peer. A payload stamped
// higher fails its decode with ErrUnsupportedVersion.
const MsgVersion = 1

// msgMagic opens every binary message payload. See the package comment on
// why the first byte makes the header unambiguous against gob.
var msgMagic = [3]byte{0xA7, 'A', 'L'}

// msgHeaderLen is magic(3) + version(1).
const msgHeaderLen = 4

// Marshaler is implemented by message types with a hand-rolled binary
// encoding. AppendWire appends the message body (header excluded) to dst
// and returns the extended slice, allocating nothing beyond dst's growth.
type Marshaler interface {
	AppendWire(dst []byte) []byte
}

// Unmarshaler is the decode side of Marshaler. DecodeWire reads the message
// body from d, sharing d's backing array where the field type allows (byte
// slices alias; strings must copy). It returns typed wire errors, never
// panics, on malformed input.
type Unmarshaler interface {
	DecodeWire(d *Dec) error
}

// AppendMsgHeader appends the binary-message header for the given format
// version.
func AppendMsgHeader(dst []byte, version uint8) []byte {
	dst = append(dst, msgMagic[:]...)
	return append(dst, version)
}

// MsgHeader inspects a payload: ok reports whether it opens with the binary
// message header, and if so version and body are the declared format
// version and the remaining bytes. !ok means the payload belongs to another
// codec (in practice: gob).
func MsgHeader(data []byte) (version uint8, body []byte, ok bool) {
	if len(data) < msgHeaderLen || data[0] != msgMagic[0] || data[1] != msgMagic[1] || data[2] != msgMagic[2] {
		return 0, nil, false
	}
	return data[3], data[msgHeaderLen:], true
}

// ---------------------------------------------------------------------------
// Pooled encode buffers.

// maxPooledBuf caps the capacity a returned buffer may keep. An occasional
// giant message (a snapshot riding an envelope) must not pin megabytes in
// the pool forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns a pooled scratch buffer with zero length. Callers append
// into it and hand it back with PutBuf once the bytes have been consumed
// (written to a socket, copied out); the buffer must not be retained past
// PutBuf.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer obtained from GetBuf to the pool. Oversized
// buffers are dropped instead of pooled.
func PutBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// ---------------------------------------------------------------------------
// Pooled decoders.

var decPool = sync.Pool{New: func() any { return new(Dec) }}

// GetDec returns a pooled decoder over data, for callers that pass it through
// an interface (Unmarshaler.DecodeWire), where a fresh Dec would escape to the
// heap on every message. Hand it back with PutDec once decoding is done;
// decoded values may alias data, never the Dec.
func GetDec(data []byte) *Dec {
	d := decPool.Get().(*Dec)
	d.data, d.pos = data, 0
	return d
}

// PutDec returns a decoder obtained from GetDec to the pool.
func PutDec(d *Dec) {
	d.data = nil
	decPool.Put(d)
}

// ---------------------------------------------------------------------------
// String interning for repeated wire identifiers.

// Interner deduplicates strings that recur across decoded messages — node
// ids in a cluster of thousands of nodes take a few thousand distinct
// values but arrive in millions of updates. Intern returns the existing
// copy when one is cached, so the steady state decodes an id with zero
// allocations. It is safe for concurrent use.
type Interner struct {
	mu sync.RWMutex
	m  map[string]string
}

// maxInterned bounds the cache. Populations past the bound (agent ids
// flowing through by mistake) fall back to plain allocation instead of
// growing without limit.
const maxInterned = 1 << 14

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string)}
}

// Intern returns the canonical string for b, allocating only on first
// sight. The lookup itself is allocation-free (map index by string(b) is
// compiled without a conversion).
func (in *Interner) Intern(b []byte) string {
	in.mu.RLock()
	s, ok := in.m[string(b)]
	in.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	in.mu.Lock()
	if len(in.m) < maxInterned {
		if prev, ok := in.m[s]; ok {
			s = prev
		} else {
			in.m[s] = s
		}
	}
	in.mu.Unlock()
	return s
}

// StringIn reads one length-prefixed string through the interner: repeat
// values cost no allocation. A nil interner degrades to a plain String
// read.
func (d *Dec) StringIn(maxLen int, in *Interner) (string, error) {
	if in == nil {
		return d.String(maxLen)
	}
	b, err := d.Bytes(maxLen)
	if err != nil {
		return "", err
	}
	return in.Intern(b), nil
}

// ---------------------------------------------------------------------------
// Fixed-width integers (trace ids are uniform random — varints would widen
// them).

// AppendU64 appends v as 8 big-endian bytes.
func AppendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// U64 reads 8 big-endian bytes.
func (d *Dec) U64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, fmt.Errorf("%w: u64 at offset %d", ErrTruncated, d.pos)
	}
	b := d.data[d.pos:]
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	d.pos += 8
	return v, nil
}
