package loctable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/wire"
)

func populated(n int) *Table {
	tbl := New()
	for i := 0; i < n; i++ {
		tbl.Put(ids.AgentID(fmt.Sprintf("agent-%d", i)), platform.NodeID(fmt.Sprintf("node-%d", i%5)))
	}
	return tbl
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300} {
		tbl := populated(n)
		data, err := tbl.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Deserialize(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Len() != tbl.Len() {
			t.Fatalf("n=%d: decoded %d entries, want %d", n, got.Len(), tbl.Len())
		}
		for a, want := range tbl.Snapshot() {
			if node, ok := got.Get(a); !ok || node != want {
				t.Fatalf("decoded[%s] = %q, %v; want %q", a, node, ok, want)
			}
		}
	}
}

// TestSerializeCrossStripeConfig checks a dump from a non-default stripe
// layout loads into the default one: entries rehash on Deserialize.
func TestSerializeCrossStripeConfig(t *testing.T) {
	tbl := NewWithStripes(2)
	for i := 0; i < 64; i++ {
		tbl.Put(ids.AgentID(fmt.Sprintf("x-%d", i)), "n")
	}
	data, err := tbl.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 64 {
		t.Fatalf("decoded %d entries, want 64", got.Len())
	}
}

func TestDeserializeTypedErrors(t *testing.T) {
	data, err := populated(20).Serialize()
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at every prefix is typed, never accepted, never a panic.
	for cut := 0; cut < len(data); cut++ {
		_, err := Deserialize(data[:cut])
		if err == nil {
			t.Fatalf("accepted %d-byte prefix", cut)
		}
		if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("cut %d: untyped error %v", cut, err)
		}
	}

	// Any flipped byte fails the CRC.
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x08
		if _, err := Deserialize(mutated); err == nil {
			t.Fatalf("accepted flip at byte %d", i)
		}
	}

	// Future format version is refused as such, not as corruption.
	future := wire.AppendFrame(nil, SerializeMagic, SerializeVersion+1, 0, nil)
	if _, err := Deserialize(future); !errors.Is(err, wire.ErrUnsupportedVersion) {
		t.Fatalf("future version: %v", err)
	}

	// Structurally valid frames with semantic nonsense are corrupt: an
	// empty agent id, a duplicate entry, an impossible stripe count.
	mk := func(payload []byte) []byte {
		return wire.AppendFrame(nil, SerializeMagic, SerializeVersion, 0, payload)
	}
	empty := wire.AppendUvarint(nil, 1)
	empty = wire.AppendUvarint(empty, 1)
	empty = wire.AppendString(empty, "")
	empty = wire.AppendString(empty, "node")
	if _, err := Deserialize(mk(empty)); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("empty agent id: %v", err)
	}
	dup := wire.AppendUvarint(nil, 1)
	dup = wire.AppendUvarint(dup, 2)
	for i := 0; i < 2; i++ {
		dup = wire.AppendString(dup, "same")
		dup = wire.AppendString(dup, "node")
	}
	if _, err := Deserialize(mk(dup)); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("duplicate agent: %v", err)
	}
	if _, err := Deserialize(mk(wire.AppendUvarint(nil, 0))); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("zero stripes: %v", err)
	}
	if _, err := Deserialize(mk(wire.AppendUvarint(nil, 1<<40))); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("absurd stripe count: %v", err)
	}
}

// FuzzDeserialize: arbitrary bytes either produce a valid table or a typed
// error; never a panic or an unbounded allocation.
func FuzzDeserialize(f *testing.F) {
	seed, _ := populated(10).Serialize()
	f.Add(seed)
	emptyTbl, _ := New().Serialize()
	f.Add(emptyTbl)
	f.Add(seed[:len(seed)/3])
	f.Add([]byte("ALOC junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Deserialize(data)
		if err != nil {
			if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, wire.ErrUnsupportedVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// An accepted table must survive re-serialization.
		if _, err := tbl.Serialize(); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
	})
}

// goldenTable is the table the streams in testdata were written from, by the
// build whose slots still held the id as a string. Its ids are picked so
// that each sits in a home slot of its own in a minimum-size stripe: slot
// order, and so the order a stream lists entries in, then does not depend on
// the order they were put in, which is what lets a decoded stream re-encode
// byte for byte.
func goldenTable() *Table {
	tbl := New()
	perStripe := make(map[uint64]int)
	home := make(map[[2]uint64]bool)
	var kept []ids.AgentID
	for i := 0; len(kept) < 72; i++ {
		id := ids.AgentID(fmt.Sprintf("golden-%03d", i))
		h := id.Hash64()
		_, sh := tbl.stripeFor(h)
		at := [2]uint64{h & tbl.mask, sh & (minStripeCap - 1)}
		if home[at] || perStripe[at[0]] == minStripeCap*loadNum/loadDen {
			continue
		}
		home[at] = true
		perStripe[at[0]]++
		kept = append(kept, id)
		tbl.PutHashed(id, id.Hash64(), platform.NodeID(fmt.Sprintf("node-%d", i%3)), uint64(i%11))
	}
	for i := 0; i < len(kept); i += 9 {
		tbl.Delete(kept[i])
	}
	return tbl
}

// TestGoldenStreams pins the binary dump older IAgent sections carry to the
// bytes the build before the key arena wrote: the same table encodes to them,
// they decode to that table, and the decoded table encodes back to them byte
// for byte.
func TestGoldenStreams(t *testing.T) {
	want := goldenTable()
	for _, tc := range []struct {
		file   string
		encode func(*Table) ([]byte, error)
		decode func([]byte) (*Table, error)
	}{
		{"golden-table.aloc", (*Table).Serialize, Deserialize},
	} {
		t.Run(tc.file, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := tc.encode(want); err != nil || !bytes.Equal(got, golden) {
				t.Errorf("the table the stream was written from encodes to %d other bytes (%v)", len(got), err)
			}
			back, err := tc.decode(golden)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != want.Len() {
				t.Errorf("decoded %d entries, want %d", back.Len(), want.Len())
			}
			back.RangeSlots(func(s Slot) bool {
				w, ok := want.GetSlot(s.Agent, s.Hash)
				w.Load = 0 // the dump carries no loads
				if !ok || s.Node != w.Node || s.Load != w.Load {
					t.Errorf("decoded %s at %s load %d; written at %s load %d (held %v)", s.Agent, s.Node, s.Load, w.Node, w.Load, ok)
				}
				return true
			})
			if again, err := tc.encode(back); err != nil || !bytes.Equal(again, golden) {
				t.Errorf("the decoded stream re-encodes to %d other bytes (%v)", len(again), err)
			}
		})
	}
}
