package hashtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"agentloc/internal/bitstr"
)

// buildFromScript grows a tree deterministically from a byte script (the
// same construction the fuzz target uses), so quick.Check can explore the
// space of reachable trees.
func buildFromScript(script []byte) (*Tree, error) {
	tree := New("q-0")
	next := 1
	for _, op := range script {
		agents := tree.IAgents()
		target := agents[int(op)%len(agents)]
		if op%5 == 4 && len(agents) > 1 {
			nt, _, err := tree.Merge(target)
			if err != nil {
				return nil, err
			}
			tree = nt
			continue
		}
		cands, err := tree.SplitCandidates(target, 3)
		if err != nil {
			return nil, err
		}
		nt, err := tree.ApplySplit(cands[int(op/5)%len(cands)], newFuzzID(&next))
		if err != nil {
			return nil, err
		}
		tree = nt
	}
	return tree, nil
}

// TestQuickLookupTotalOnReachableTrees: every 64-bit id resolves to an
// existing IAgent on every reachable tree.
func TestQuickLookupTotalOnReachableTrees(t *testing.T) {
	f := func(script []byte, id uint64) bool {
		if len(script) > 24 {
			script = script[:24]
		}
		tree, err := buildFromScript(script)
		if err != nil {
			return false
		}
		if tree.Validate() != nil {
			return false
		}
		owner, err := tree.Lookup(bitstr.FromUint64(id, 64))
		if err != nil {
			return false
		}
		for _, ia := range tree.IAgents() {
			if ia == owner {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodingPreservesLookup: the serialized form preserves the
// mapping for arbitrary ids on arbitrary reachable trees.
func TestQuickEncodingPreservesLookup(t *testing.T) {
	f := func(script []byte, id uint64) bool {
		if len(script) > 16 {
			script = script[:16]
		}
		tree, err := buildFromScript(script)
		if err != nil {
			return false
		}
		back, err := Deserialize(tree.Serialize())
		if err != nil {
			return false
		}
		b := bitstr.FromUint64(id, 64)
		a1, err1 := tree.Lookup(b)
		a2, err2 := back.Lookup(b)
		return err1 == nil && err2 == nil && a1 == a2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickSplitMovesExactlyMatchingBit: for any reachable tree, any leaf
// and any candidate, ids move to the new IAgent iff their bit at the
// candidate's position equals NewOnBit.
func TestQuickSplitMovesExactlyMatchingBit(t *testing.T) {
	f := func(script []byte, pick uint8, id uint64) bool {
		if len(script) > 12 {
			script = script[:12]
		}
		tree, err := buildFromScript(script)
		if err != nil {
			return false
		}
		agents := tree.IAgents()
		target := agents[int(pick)%len(agents)]
		cands, err := tree.SplitCandidates(target, 3)
		if err != nil {
			return false
		}
		c := cands[int(pick/7)%len(cands)]
		nt, err := tree.ApplySplit(c, "QNEW")
		if err != nil {
			return false
		}
		b := bitstr.FromUint64(id, 64)
		before, err1 := tree.Lookup(b)
		after, err2 := nt.Lookup(b)
		if err1 != nil || err2 != nil {
			return false
		}
		if after == "QNEW" {
			return b.At(c.BitPos) == c.NewOnBit
		}
		return after == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeAbsorbersOnly: after merging any leaf of any reachable
// tree, the merged leaf's ids land only on reported absorbers and all other
// ids keep their owner.
func TestQuickMergeAbsorbersOnly(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	f := func(script []byte, pick uint8) bool {
		if len(script) > 12 {
			script = script[:12]
		}
		tree, err := buildFromScript(script)
		if err != nil {
			return false
		}
		agents := tree.IAgents()
		if len(agents) < 2 {
			return true // nothing to merge
		}
		target := agents[int(pick)%len(agents)]
		nt, res, err := tree.Merge(target)
		if err != nil {
			return false
		}
		absorber := make(map[string]bool, len(res.Absorbers))
		for _, a := range res.Absorbers {
			absorber[a] = true
		}
		for i := 0; i < 32; i++ {
			b := bitstr.FromUint64(r.Uint64(), 64)
			before, err1 := tree.Lookup(b)
			after, err2 := nt.Lookup(b)
			if err1 != nil || err2 != nil {
				return false
			}
			if before == target {
				if !absorber[after] {
					return false
				}
			} else if after != before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickLookupHashMatchesLookup: on every reachable tree — the script
// mixes merges in, so multi-bit labels and non-empty root labels occur — the
// word lookup and the bit-string lookup name the same owner for every id.
func TestQuickLookupHashMatchesLookup(t *testing.T) {
	multiBit, rootLabelled := 0, 0
	f := func(script []byte, id uint64) bool {
		if len(script) > 24 {
			script = script[:24]
		}
		tree, err := buildFromScript(script)
		if err != nil {
			return false
		}
		if !tree.RootLabel().IsEmpty() {
			rootLabelled++
		}
		for _, l := range tree.Leaves() {
			for _, lab := range l.HyperLabel {
				if lab.Len() > 1 {
					multiBit++
				}
			}
		}
		checkLookupHash(t, tree, id)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if multiBit == 0 || rootLabelled == 0 {
		t.Errorf("generator built %d multi-bit labels and %d root-labelled trees; the property needs both", multiBit, rootLabelled)
	}
}

// TestLookupHashFixedTrees pins the word lookup on hand-built shapes: the
// paper's tree (multi-bit labels), a root label that shifts every routing
// bit, and a path longer than the id, where both lookups must refuse.
func TestLookupHashFixedTrees(t *testing.T) {
	shifted := &Tree{version: 1, rootLabel: bits("101"), root: inner(
		"011", leaf("L"),
		"1", inner("0", leaf("RL"), "10", leaf("RR")),
	)}
	// 70 one-bit right edges: the walk needs bit 64 of a 64-bit id.
	deep := leaf("bottom")
	for i := 0; i < 70; i++ {
		deep = inner("0", leaf("off-"+itoa(i)), "1", deep)
	}
	tooDeep := &Tree{version: 1, root: deep}
	for _, tree := range []*Tree{shifted, tooDeep} {
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(19))
	for _, tree := range []*Tree{New("solo"), PaperTree(), shifted, tooDeep} {
		for _, v := range []uint64{0, ^uint64(0), 1, 1 << 63, 0xAAAAAAAAAAAAAAAA, 0x5555555555555555} {
			checkLookupHash(t, tree, v)
		}
		for i := 0; i < 256; i++ {
			checkLookupHash(t, tree, r.Uint64())
		}
	}
	if _, err := tooDeep.LookupHash(^uint64(0)); err == nil {
		t.Error("LookupHash walked past bit 63 without an error")
	}
}

// TestLookupHashAllocatesNothing is the allocation budget of the per-operation
// owner lookup.
func TestLookupHashAllocatesNothing(t *testing.T) {
	tree := PaperTree()
	var sink string
	if n := testing.AllocsPerRun(1000, func() { sink, _ = tree.LookupHash(0x123456789ABCDEF0) }); n != 0 {
		t.Errorf("LookupHash allocates %.0f times per call, want 0", n)
	}
	_ = sink
}
