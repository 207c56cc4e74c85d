// Package bitstr provides bit-string values used throughout the hash-based
// location mechanism: edge labels of the hash tree, hyper-labels, and the
// binary representations of agent identifiers.
//
// A Bits value is an immutable sequence of bits. The zero value is the empty
// bit string. Bits values are comparable with == (they are backed by a Go
// string of '0'/'1' bytes), which makes them usable as map keys.
package bitstr

import (
	"fmt"
	"strings"
)

// Bits is an immutable sequence of bits. The underlying representation is a
// string containing only the bytes '0' and '1'; use Parse to build one from
// untrusted input and MustParse for literals.
type Bits struct {
	s string
}

// Empty is the zero-length bit string.
var Empty = Bits{}

// Parse converts a textual bit string such as "0110" into a Bits value. It
// returns an error if the input contains any byte other than '0' or '1'.
func Parse(s string) (Bits, error) {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return Bits{}, fmt.Errorf("bitstr: invalid byte %q at index %d in %q", s[i], i, s)
		}
	}
	return Bits{s: s}, nil
}

// MustParse is like Parse but panics on invalid input. It is intended for
// package-level literals and tests.
func MustParse(s string) Bits {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}

// FromUint64 returns the width low-order bits of v, most significant bit
// first. Width must be in [0, 64]; out-of-range widths are clamped.
func FromUint64(v uint64, width int) Bits {
	if width < 0 {
		width = 0
	}
	if width > 64 {
		width = 64
	}
	buf := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		if v&1 == 1 {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
		v >>= 1
	}
	return Bits{s: string(buf)}
}

// Len reports the number of bits.
func (b Bits) Len() int { return len(b.s) }

// IsEmpty reports whether b has no bits.
func (b Bits) IsEmpty() bool { return len(b.s) == 0 }

// At returns the bit at index i (0 or 1). It panics if i is out of range,
// matching slice-indexing semantics.
func (b Bits) At(i int) byte {
	if b.s[i] == '1' {
		return 1
	}
	return 0
}

// String returns the textual form, e.g. "0110". The empty bit string renders
// as "ε" for readability in logs and tree dumps; use Raw for the bare text.
func (b Bits) String() string {
	if len(b.s) == 0 {
		return "ε"
	}
	return b.s
}

// Raw returns the underlying '0'/'1' text with no substitutions.
func (b Bits) Raw() string { return b.s }

// Concat returns the concatenation b · other.
func (b Bits) Concat(other Bits) Bits {
	if other.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return other
	}
	return Bits{s: b.s + other.s}
}

// Append returns b with a single bit appended; any nonzero bit is treated
// as 1.
func (b Bits) Append(bit byte) Bits {
	if bit != 0 {
		return Bits{s: b.s + "1"}
	}
	return Bits{s: b.s + "0"}
}

// Slice returns the sub-bit-string b[from:to]. It panics on out-of-range
// indices, matching slice semantics.
func (b Bits) Slice(from, to int) Bits {
	return Bits{s: b.s[from:to]}
}

// Prefix returns the first n bits of b. It panics if n exceeds b.Len().
func (b Bits) Prefix(n int) Bits { return Bits{s: b.s[:n]} }

// HasPrefix reports whether p is a prefix of b.
func (b Bits) HasPrefix(p Bits) bool { return strings.HasPrefix(b.s, p.s) }

// Equal reports whether two bit strings are identical. Bits is also
// comparable with ==; Equal exists for readability at call sites.
func (b Bits) Equal(other Bits) bool { return b.s == other.s }

// Compare orders bit strings lexicographically ('0' < '1'), returning
// -1, 0, or +1. Shorter strings order before their extensions.
func (b Bits) Compare(other Bits) int { return strings.Compare(b.s, other.s) }
