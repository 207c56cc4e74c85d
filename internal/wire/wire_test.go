package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	var stream []byte
	for i, p := range payloads {
		stream = AppendFrame(stream, testMagic, 3, byte(i), p)
	}
	r := bytes.NewReader(stream)
	for i, p := range payloads {
		f, err := ReadFrame(r, testMagic, 3)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Version != 3 || f.Kind != byte(i) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: got %+v", i, f)
		}
	}
	if _, err := ReadFrame(r, testMagic, 3); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestFrameTypedErrors(t *testing.T) {
	frame := AppendFrame(nil, testMagic, 1, 7, []byte("payload"))

	// Every single-bit-flip of the frame must be detected as corrupt (or,
	// for a flipped high length byte, as an impossible length), never
	// accepted and never a panic.
	for i := range frame {
		mutated := append([]byte(nil), frame...)
		mutated[i] ^= 0x40
		_, _, err := DecodeFrame(mutated, testMagic, 1)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}

	// Truncation at every boundary.
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := DecodeFrame(frame[:cut], testMagic, 1)
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: got %v", cut, err)
		}
	}

	// A valid frame with a future version: structurally intact, refused by
	// version, detectable as such.
	future := AppendFrame(nil, testMagic, 9, 0, []byte("new format"))
	if _, _, err := DecodeFrame(future, testMagic, 1); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: got %v", err)
	}
	// The same frame reads fine when the build understands version 9.
	if _, _, err := DecodeFrame(future, testMagic, 9); err != nil {
		t.Fatalf("same-version read: %v", err)
	}

	// Wrong magic is corruption, not truncation.
	if _, _, err := DecodeFrame(frame, [4]byte{'N', 'O', 'P', 'E'}, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong magic: got %v", err)
	}
}

func TestDecTypedErrors(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 42)
	b = AppendString(b, "hello")
	b = AppendBytes(b, []byte{1, 2, 3})

	d := NewDec(b)
	if v, err := d.Uvarint(); err != nil || v != 42 {
		t.Fatalf("uvarint = %d, %v", v, err)
	}
	if s, err := d.String(1 << 20); err != nil || s != "hello" {
		t.Fatalf("string = %q, %v", s, err)
	}
	if bs, err := d.Bytes(1 << 20); err != nil || !bytes.Equal(bs, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v, %v", bs, err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	// Over-read on an empty decoder.
	e := NewDec(nil)
	if _, err := e.Byte(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("byte on empty: %v", err)
	}
	if _, err := e.Uvarint(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("uvarint on empty: %v", err)
	}

	// A declared length far beyond the limit is corrupt, not an allocation.
	huge := AppendUvarint(nil, 1<<40)
	if _, err := NewDec(huge).String(1 << 20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge string length: %v", err)
	}
	// A declared length within the limit but beyond the data is truncated.
	short := AppendUvarint(nil, 100)
	if _, err := NewDec(short).Bytes(1 << 20); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short bytes: %v", err)
	}

	// Trailing garbage after a full read is corruption.
	trailing := NewDec([]byte{0x01, 0xFF})
	if _, err := trailing.Byte(); err != nil {
		t.Fatal(err)
	}
	if err := trailing.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

// TestDecViewAndRest: View reads a string that shares the decoder's bytes,
// with String's limits; Rest hands out what is left and consumes it.
func TestDecViewAndRest(t *testing.T) {
	b := AppendString(AppendString(nil, "view"), "")
	b = append(b, 7, 8)
	d := NewDec(b)
	v, err := d.View(1 << 20)
	if err != nil || v != "view" {
		t.Fatalf("view = %q, %v", v, err)
	}
	b[1] = 'V'
	if v != "View" {
		t.Fatalf("the view %q does not share the decoder's bytes", v)
	}
	if v, err := d.View(1 << 20); err != nil || v != "" {
		t.Fatalf("empty view = %q, %v", v, err)
	}
	if rest := d.Rest(); !bytes.Equal(rest, []byte{7, 8}) || d.Remaining() != 0 {
		t.Fatalf("rest = %v, %d left", rest, d.Remaining())
	}
	if _, err := NewDec(AppendUvarint(nil, 1<<40)).View(1 << 20); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge view length: %v", err)
	}
}

// TestBeginEndFrameMatchesAppendFrame: a payload encoded in place behind an
// open header yields the bytes AppendFrame yields for the finished payload,
// wherever in the buffer the frame starts.
func TestBeginEndFrameMatchesAppendFrame(t *testing.T) {
	magic := [4]byte{'T', 'E', 'S', 'T'}
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("payload"), 100)} {
		want := AppendFrame([]byte("prefix"), magic, 3, 9, payload)
		got, start := BeginFrame([]byte("prefix"), magic, 3, 9)
		got = EndFrame(append(got, payload...), start)
		if !bytes.Equal(got, want) {
			t.Errorf("in-place frame of %d payload bytes differs from AppendFrame's", len(payload))
		}
	}
}

// TestFrameReaderReusesItsBuffer: a FrameReader yields the frames ReadFrame
// would, each valid until the next, through one buffer.
func TestFrameReaderReusesItsBuffer(t *testing.T) {
	magic := [4]byte{'T', 'E', 'S', 'T'}
	var stream []byte
	payloads := [][]byte{[]byte("first"), bytes.Repeat([]byte("b"), 300), nil, []byte("last")}
	for i, p := range payloads {
		stream = AppendFrame(stream, magic, 1, byte(i), p)
	}
	fr := NewFrameReader(bytes.NewReader(stream), magic, 1)
	for i, p := range payloads {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != byte(i) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d = kind %d, %q", i, f.Kind, f.Payload)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	// Steady state: a stream of equal frames costs no allocation per frame.
	one := AppendFrame(nil, magic, 1, 1, []byte("steady"))
	many := bytes.Repeat(one, 1000)
	r := bytes.NewReader(many)
	fr = NewFrameReader(r, magic, 1)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FrameReader allocates %.1f times per frame, want 0", n)
	}
}
