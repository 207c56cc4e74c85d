package hashtree

import (
	"errors"
	"testing"

	"agentloc/internal/bitstr"
	"agentloc/internal/wire"
)

// serializeTestTrees builds a spread of shapes: single leaf, the paper's
// running example, a collapsed root (non-empty RootLabel), and a deep tree
// grown by repeated splits.
func serializeTestTrees(t *testing.T) []*Tree {
	t.Helper()
	trees := []*Tree{New("solo"), PaperTree()}

	// Merge a root child so the RootLabel path is exercised.
	collapsed := PaperTree()
	for collapsed.NumLeaves() > 1 {
		nt, _, err := collapsed.Merge(collapsed.IAgents()[0])
		if err != nil {
			t.Fatal(err)
		}
		collapsed = nt
		if !collapsed.RootLabel().IsEmpty() {
			break
		}
	}

	deep := New("ia-0")
	for i := 1; i <= 12; i++ {
		agents := deep.IAgents()
		cands, err := deep.SplitCandidates(agents[i%len(agents)], 3)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := deep.ApplySplit(cands[0], "ia-"+itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		deep = nt
	}
	return append(trees, collapsed, deep)
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, tree := range serializeTestTrees(t) {
		data := tree.Serialize()
		got, err := Deserialize(data)
		if err != nil {
			t.Fatalf("deserialize: %v", err)
		}
		if got.Version() != tree.Version() {
			t.Fatalf("version %d != %d", got.Version(), tree.Version())
		}
		if !got.RootLabel().Equal(tree.RootLabel()) {
			t.Fatalf("root label %s != %s", got.RootLabel(), tree.RootLabel())
		}
		// Structural identity: the decoded tree renders and re-encodes alike.
		if got.Describe() != tree.Describe() || string(got.Serialize()) != string(data) {
			t.Fatalf("round trip changed tree:\n%s\n%s", tree.Describe(), got.Describe())
		}
		// Behavioral identity on a probe of lookups.
		for _, v := range []uint64{0, ^uint64(0), 0x0123456789ABCDEF, 0xAAAAAAAAAAAAAAAA} {
			id := bitstr.FromUint64(v, 64)
			w1, e1 := tree.Lookup(id)
			w2, e2 := got.Lookup(id)
			if w1 != w2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("lookup diverged: %v/%v vs %v/%v", w1, e1, w2, e2)
			}
		}
	}
}

func TestDeserializeTypedErrors(t *testing.T) {
	data := PaperTree().Serialize()

	// Truncation at every prefix: typed, never a panic, never accepted.
	for cut := 0; cut < len(data); cut++ {
		_, err := Deserialize(data[:cut])
		if err == nil {
			t.Fatalf("accepted %d-byte prefix", cut)
		}
		if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("cut %d: untyped error %v", cut, err)
		}
	}

	// Every single-byte corruption is caught by the CRC.
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x10
		if _, err := Deserialize(mutated); err == nil {
			t.Fatalf("accepted flip at byte %d", i)
		}
	}

	// A frame declaring a future format version is refused as such.
	future := wire.AppendFrame(nil, SerializeMagic, SerializeVersion+1, 0, []byte("whatever"))
	if _, err := Deserialize(future); !errors.Is(err, wire.ErrUnsupportedVersion) {
		t.Fatalf("future version: %v", err)
	}

	// Trailing bytes after the frame are rejected.
	if _, err := Deserialize(append(append([]byte(nil), data...), 0x00)); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("trailing byte: %v", err)
	}
}

// A frame holding an invalid tree is corrupt: the CRC protects bytes,
// Validate protects semantics.
func TestDeserializeRejectsInvalidTrees(t *testing.T) {
	// A lone child has no encoded form: its parent goes out as a leaf
	// without an IAgent. A bit string cannot hold a bad root label, so that
	// payload is spelled out by hand.
	badRoot := wire.AppendString(wire.AppendUvarint(nil, 1), "x")
	badRoot = wire.AppendString(append(badRoot, tagLeaf), "A")
	serialized := func(root *node) []byte { return (&Tree{version: 1, root: root}).Serialize() }
	for _, tt := range []struct {
		name string
		data []byte
	}{
		{"single child", serialized(&node{rightLabel: bits("1"), right: leaf("B")})},
		{"bad root label", wire.AppendFrame(nil, SerializeMagic, SerializeVersion, 0, badRoot)},
		{"bad valid bit", serialized(inner("1", leaf("A"), "1", leaf("B")))},
		{"empty label", serialized(inner("", leaf("A"), "1", leaf("B")))},
		{"duplicate iagent", serialized(inner("0", leaf("A"), "1", leaf("A")))},
		{"empty leaf", serialized(leaf(""))},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Deserialize(tt.data); !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("invalid tree: %v, want ErrCorrupt", err)
			}
		})
	}
}
