// Package wire is the shared framed binary codec behind every durable
// artifact of the repository: hash-tree snapshots, location-table dumps,
// and the snapshot/WAL files of internal/snapshot.
//
// A frame is:
//
//	magic[4] | version uint16 | kind uint8 | length uint32 | payload | crc32c uint32
//
// All integers are big-endian. The CRC (Castagnoli) covers everything from
// the magic through the payload, so any flipped bit — header or body — is
// detected. Decoders never panic on hostile input; they return one of the
// typed sentinel errors below (possibly wrapped with detail), which lets
// recovery code distinguish "roll back to the previous snapshot" (corrupt,
// truncated) from "this file was written by a newer build" (unsupported
// version).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// Typed decode errors. Callers match them with errors.Is.
var (
	// ErrCorrupt marks input whose structure or checksum is wrong: bad
	// magic, CRC mismatch, impossible lengths, malformed payloads.
	ErrCorrupt = errors.New("wire: corrupt input")
	// ErrTruncated marks input that ends mid-frame — the signature of a
	// torn write or a partially synced tail. A truncated WAL tail is
	// expected after a crash; a truncated snapshot is not.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrUnsupportedVersion marks a structurally valid frame whose format
	// version is newer than this build understands.
	ErrUnsupportedVersion = errors.New("wire: unsupported format version")
)

// MaxFrameLen bounds a single frame's payload. Anything larger is rejected
// as corrupt before allocation, so a flipped length byte cannot OOM the
// decoder.
const MaxFrameLen = 1 << 30

// MaxIDLen bounds one encoded id, name or tag: an agent, node, IAgent or
// residence id, a section name, a capability. Real ones are short strings; a
// length near the bound is corruption.
const MaxIDLen = 1 << 16

// frameHeaderLen is magic(4) + version(2) + kind(1) + length(4).
const frameHeaderLen = 11

// frameTrailerLen is the CRC.
const frameTrailerLen = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, magic [4]byte, version uint16, kind byte, payload []byte) []byte {
	dst, start := BeginFrame(dst, magic, version, kind)
	dst = append(dst, payload...)
	return EndFrame(dst, start)
}

// BeginFrame appends a frame header with its length left open, so the caller
// can encode the payload straight behind it instead of building it elsewhere
// and copying it in. start is where the frame begins in the returned slice;
// hand both to EndFrame once the payload is appended.
func BeginFrame(dst []byte, magic [4]byte, version uint16, kind byte) (out []byte, start int) {
	start = len(dst)
	dst = append(dst, magic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, version)
	dst = append(dst, kind)
	return append(dst, 0, 0, 0, 0), start
}

// EndFrame closes the frame BeginFrame opened at start: it fills in the
// payload length and appends the CRC.
func EndFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+frameHeaderLen-4:], uint32(len(dst)-start-frameHeaderLen))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// Frame is one decoded frame.
type Frame struct {
	Version uint16
	Kind    byte
	Payload []byte
}

// ReadFrame reads the next frame from r, checking magic, version bound and
// CRC. It returns io.EOF only on a clean boundary (zero bytes before the
// next frame); a partial frame is ErrTruncated, wrapping the read error that
// cut it short.
func ReadFrame(r io.Reader, magic [4]byte, maxVersion uint16) (Frame, error) {
	return NewFrameReader(r, magic, maxVersion).Next()
}

// FrameReader reads a stream of frames through one reusable buffer, for
// readers that consume each frame before asking for the next (a connection's
// read loop). ReadFrame is the one-shot form.
type FrameReader struct {
	r          io.Reader
	magic      [4]byte
	maxVersion uint16
	header     [frameHeaderLen]byte
	body       []byte
}

// maxKeptFrameBuf caps the buffer a FrameReader keeps between frames: every
// connection has one for life, so an occasional giant frame must not stay
// resident in it. Larger frames get a buffer of their own.
const maxKeptFrameBuf = 1 << 16

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader, magic [4]byte, maxVersion uint16) *FrameReader {
	return &FrameReader{r: r, magic: magic, maxVersion: maxVersion}
}

// Next reads the next frame, with ReadFrame's checks and errors. The frame's
// Payload aliases the reader's buffer: it is valid until the following Next.
func (fr *FrameReader) Next() (Frame, error) {
	header := fr.header[:]
	if _, err := io.ReadFull(fr.r, header); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: mid-header: %w", ErrTruncated, err)
	}
	if [4]byte(header[:4]) != fr.magic {
		return Frame{}, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, header[:4], fr.magic[:])
	}
	version := binary.BigEndian.Uint16(header[4:6])
	kind := header[6]
	length := binary.BigEndian.Uint32(header[7:11])
	if length > MaxFrameLen {
		return Frame{}, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, length)
	}
	need := int(length) + frameTrailerLen
	if cap(fr.body) < need || cap(fr.body) > maxKeptFrameBuf {
		fr.body = make([]byte, need)
	}
	body := fr.body[:need]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return Frame{}, fmt.Errorf("%w: mid-frame (want %d payload bytes): %w", ErrTruncated, length, err)
	}
	crc := crc32.Checksum(header, castagnoli)
	crc = crc32.Update(crc, castagnoli, body[:length])
	if got := binary.BigEndian.Uint32(body[length:]); got != crc {
		return Frame{}, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, crc)
	}
	// The version check comes after the CRC: a frame must prove it is
	// intact before its version field is trusted.
	if version > fr.maxVersion {
		return Frame{}, fmt.Errorf("%w: frame version %d, this build reads ≤ %d", ErrUnsupportedVersion, version, fr.maxVersion)
	}
	return Frame{Version: version, Kind: kind, Payload: body[:length]}, nil
}

// DecodeFrame decodes the frame at the start of data, returning the frame
// and the number of bytes consumed. Unlike ReadFrame, which reports a clean
// stream end as io.EOF, DecodeFrame expects a frame to be present: empty
// input is ErrTruncated.
func DecodeFrame(data []byte, magic [4]byte, maxVersion uint16) (Frame, int, error) {
	r := &sliceReader{data: data}
	f, err := ReadFrame(r, magic, maxVersion)
	if err == io.EOF {
		err = fmt.Errorf("%w: empty input", ErrTruncated)
	}
	return f, r.pos, err
}

// sliceReader is a cursor over a byte slice; unlike bytes.Reader it exposes
// the consumed offset.
type sliceReader struct {
	data []byte
	pos  int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.data) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.pos:])
	s.pos += n
	return n, nil
}

// ---------------------------------------------------------------------------
// Payload encoding helpers: uvarints and length-prefixed strings.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendString appends a uvarint length prefix followed by the bytes of s.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Dec is a cursor over a payload. Every read returns a typed error instead
// of panicking when the payload is short or malformed.
type Dec struct {
	data []byte
	pos  int
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{data: data} }

// Remaining reports the unread byte count.
func (d *Dec) Remaining() int { return len(d.data) - d.pos }

// Done returns ErrCorrupt if any bytes remain unread — a well-formed
// payload is consumed exactly.
func (d *Dec) Done() error {
	if d.pos != len(d.data) {
		return fmt.Errorf("%w: %d trailing bytes in payload", ErrCorrupt, len(d.data)-d.pos)
	}
	return nil
}

// Uvarint reads one unsigned varint.
func (d *Dec) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, d.pos)
	}
	d.pos += n
	return v, nil
}

// Byte reads one byte.
func (d *Dec) Byte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, fmt.Errorf("%w: byte at offset %d", ErrTruncated, d.pos)
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

// String reads one length-prefixed string. maxLen bounds the declared
// length so a corrupt prefix cannot force a huge allocation.
func (d *Dec) String(maxLen int) (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(maxLen) {
		return "", fmt.Errorf("%w: string length %d exceeds limit %d", ErrCorrupt, n, maxLen)
	}
	if uint64(d.Remaining()) < n {
		return "", fmt.Errorf("%w: string wants %d bytes, %d remain", ErrTruncated, n, d.Remaining())
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// Bytes reads one length-prefixed byte slice (sharing the underlying
// array), bounded by maxLen like String.
func (d *Dec) Bytes(maxLen int) ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxLen) {
		return nil, fmt.Errorf("%w: bytes length %d exceeds limit %d", ErrCorrupt, n, maxLen)
	}
	if uint64(d.Remaining()) < n {
		return nil, fmt.Errorf("%w: bytes wants %d, %d remain", ErrTruncated, n, d.Remaining())
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// View reads one length-prefixed string, bounded by maxLen like String, as a
// view of the decoder's data: no copy, and valid only while those bytes stay
// unchanged.
func (d *Dec) View(maxLen int) (string, error) {
	b, err := d.Bytes(maxLen)
	if len(b) == 0 {
		return "", err
	}
	return unsafe.String(&b[0], len(b)), nil
}

// Rest returns the unread bytes (sharing the underlying array) and consumes
// them.
func (d *Dec) Rest() []byte {
	rest := d.data[d.pos:]
	d.pos = len(d.data)
	return rest
}

// AppendBytes appends a uvarint length prefix followed by b.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}
