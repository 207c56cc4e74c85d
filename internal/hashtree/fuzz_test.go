package hashtree

import (
	"errors"
	"testing"

	"agentloc/internal/bitstr"
)

// FuzzDeserialize hardens the tree decoder against arbitrary bytes: any
// input must be rejected with a typed error or produce a valid tree —
// corrupt, truncated and version-skewed bytes must never panic.
func FuzzDeserialize(f *testing.F) {
	seed := PaperTree().Serialize()
	f.Add(seed)
	f.Add(New("A").Serialize())
	f.Add(seed[:len(seed)/2])               // truncated
	f.Add([]byte("AHTR garbage"))           // right magic, wrong body
	f.Add([]byte{})                         // empty
	f.Add(append([]byte(nil), seed[4:]...)) // missing magic
	skew := append([]byte(nil), seed...)
	skew[5] = 0xFF // version bytes live after the magic
	f.Add(skew)
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := Deserialize(data)
		if err != nil {
			return // typed rejection is fine; panics are not
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("Deserialize accepted invalid tree: %v", err)
		}
		checkLookupHash(t, tree, 0xDEADBEEF)
		if _, err := Deserialize(tree.Serialize()); err != nil {
			t.Fatalf("accepted tree does not re-serialize: %v", err)
		}
	})
}

// FuzzSplitSequence applies fuzzer-chosen split/merge sequences and checks
// the structural invariants survive.
func FuzzSplitSequence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{9, 9, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		tree := New("ia-0")
		next := 1
		for _, op := range script {
			agents := tree.IAgents()
			target := agents[int(op)%len(agents)]
			if op%4 == 3 && len(agents) > 1 {
				nt, _, err := tree.Merge(target)
				if err != nil {
					t.Fatalf("merge %s: %v", target, err)
				}
				tree = nt
				continue
			}
			cands, err := tree.SplitCandidates(target, 3)
			if err != nil {
				t.Fatalf("candidates %s: %v", target, err)
			}
			c := cands[int(op/4)%len(cands)]
			nt, err := tree.ApplySplit(c, newFuzzID(&next))
			if err != nil {
				t.Fatalf("split %v: %v", c, err)
			}
			tree = nt
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("invalid tree after script %v: %v", script, err)
		}
		// Totality on a few probes.
		for _, v := range []uint64{0, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x123456789ABCDEF0} {
			if _, err := tree.Lookup(bitstr.FromUint64(v, 64)); err != nil {
				t.Fatalf("lookup %x: %v", v, err)
			}
			checkLookupHash(t, tree, v)
		}
	})
}

// checkLookupHash fails the test unless the word lookup and the bit-string
// lookup agree on v, owner and error alike.
func checkLookupHash(t *testing.T, tree *Tree, v uint64) {
	t.Helper()
	want, wantErr := tree.Lookup(bitstr.FromUint64(v, 64))
	got, gotErr := tree.LookupHash(v)
	if got != want || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("LookupHash(%#x) = %q, %v; Lookup = %q, %v", v, got, gotErr, want, wantErr)
	}
	if wantErr != nil && !errors.Is(gotErr, ErrIDTooShort) {
		t.Fatalf("LookupHash(%#x) error %v, want ErrIDTooShort like Lookup's %v", v, gotErr, wantErr)
	}
}

func newFuzzID(next *int) string {
	id := "fz-" + itoa(*next)
	*next++
	return id
}
