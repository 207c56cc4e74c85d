package hashtree

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"agentloc/internal/bitstr"
)

// bits is shorthand for bitstr.MustParse in tests.
func bits(s string) bitstr.Bits { return bitstr.MustParse(s) }

// lookupOwner is a test helper that fails the test on lookup error.
func lookupOwner(t *testing.T, tr *Tree, id string) string {
	t.Helper()
	// Pad the id out to 64 bits so deep trees never run out.
	padded := id + strings.Repeat("0", 64-len(id))
	owner, err := tr.Lookup(bits(padded))
	if err != nil {
		t.Fatalf("Lookup(%s): %v", id, err)
	}
	return owner
}

func TestNewSingleLeaf(t *testing.T) {
	tr := New("IA0")
	if tr.Version() != 1 {
		t.Errorf("Version = %d, want 1", tr.Version())
	}
	if tr.NumLeaves() != 1 {
		t.Errorf("NumLeaves = %d, want 1", tr.NumLeaves())
	}
	if got := lookupOwner(t, tr, "1"); got != "IA0" {
		t.Errorf("Lookup = %q, want IA0", got)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if tr.Height() != 0 {
		t.Errorf("Height = %d, want 0", tr.Height())
	}
}

func TestPaperTreeValid(t *testing.T) {
	tr := PaperTree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tr.NumLeaves(); got != 7 {
		t.Errorf("NumLeaves = %d, want 7", got)
	}
	want := []string{"IA0", "IA1", "IA2", "IA3", "IA4", "IA5", "IA6"}
	got := tr.IAgents()
	if len(got) != len(want) {
		t.Fatalf("IAgents = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IAgents[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestFigure1Tree pins the running example's hyper-labels (the structural
// content of the paper's Figure 1).
func TestFigure1Tree(t *testing.T) {
	tr := PaperTree()
	want := map[string]string{
		"IA0": "0.0",
		"IA1": "0.1.0",
		"IA2": "0.1.1",
		"IA3": "1.00.0",
		"IA4": "1.00.1",
		"IA5": "1.1.01",
		"IA6": "1.1.1",
	}
	for _, l := range tr.Leaves() {
		if got := l.HyperLabelString(); got != want[l.IAgent] {
			t.Errorf("%s hyper-label = %s, want %s", l.IAgent, got, want[l.IAgent])
		}
	}
}

// TestFigure2Compatibility pins the compatibility rule: an id is served by
// the leaf whose hyper-label's valid bits all match (paper Figure 2). Unused
// bits — the second bit of "00" into the IA3/IA4 subtree and of "01" into
// IA5 — must not influence the mapping.
func TestFigure2Compatibility(t *testing.T) {
	tr := PaperTree()
	tests := []struct {
		id   string
		want string
	}{
		{"000", "IA0"},
		{"001", "IA0"}, // third bit irrelevant for IA0
		{"0100", "IA1"},
		{"0110", "IA2"},
		// IA3 serves 10?0..., IA4 serves 10?1...: bit 0 is consumed by the
		// root's right edge "1"; bits 1-2 by label "00" with bit 2 unused;
		// bit 3 routes.
		{"1000", "IA3"},
		{"1010", "IA3"}, // unused bit flipped — same owner
		{"1001", "IA4"},
		{"1011", "IA4"},
		// IA5 serves 110?..., IA6 serves 111...
		{"1100", "IA5"},
		{"1101", "IA5"}, // unused fourth bit flipped — same owner
		{"1110", "IA6"},
	}
	for _, tt := range tests {
		if got := lookupOwner(t, tr, tt.id); got != tt.want {
			t.Errorf("Lookup(%s) = %s, want %s", tt.id, got, tt.want)
		}
	}
}

// TestFigure3SimpleSplit reproduces the simple split of paper Figure 3:
// splitting a leaf whose hyper-label has only single-bit labels creates two
// children below it, the old IAgent keeping one and the new IAgent taking
// the other.
func TestFigure3SimpleSplit(t *testing.T) {
	tr := PaperTree()
	cands, err := tr.SplitCandidates("IA6", 4)
	if err != nil {
		t.Fatal(err)
	}
	// IA6's hyper-label is 1.1.1 — all single-bit labels, no multi-bit
	// label anywhere on its path, so the first candidate must be a simple
	// split with m=1.
	if cands[0].Kind != SplitSimple || cands[0].m != 1 {
		t.Fatalf("first candidate = %v, want simple m=1", cands[0])
	}
	nt, err := tr.ApplySplit(cands[0], "IA7")
	if err != nil {
		t.Fatal(err)
	}
	if nt.Version() != tr.Version()+1 {
		t.Errorf("version = %d, want %d", nt.Version(), tr.Version()+1)
	}
	l6, err := nt.LeafOf("IA6")
	if err != nil {
		t.Fatal(err)
	}
	if got := l6.HyperLabelString(); got != "1.1.1.0" {
		t.Errorf("IA6 hyper-label = %s, want 1.1.1.0", got)
	}
	l7, err := nt.LeafOf("IA7")
	if err != nil {
		t.Fatal(err)
	}
	if got := l7.HyperLabelString(); got != "1.1.1.1" {
		t.Errorf("IA7 hyper-label = %s, want 1.1.1.1", got)
	}
	// Mapping: ids previously at IA6 split between IA6 and IA7 on bit 3;
	// everyone else is untouched.
	if got := lookupOwner(t, nt, "1110"); got != "IA6" {
		t.Errorf("1110 → %s, want IA6", got)
	}
	if got := lookupOwner(t, nt, "1111"); got != "IA7" {
		t.Errorf("1111 → %s, want IA7", got)
	}
	if got := lookupOwner(t, nt, "000"); got != "IA0" {
		t.Errorf("000 → %s, want IA0 (untouched)", got)
	}
}

// TestSimpleSplitWithM2 exercises the m > 1 branch: the skipped bit is
// appended to the split leaf's incoming label as an unused bit.
func TestSimpleSplitWithM2(t *testing.T) {
	tr := PaperTree()
	cands, err := tr.SplitCandidates("IA6", 4)
	if err != nil {
		t.Fatal(err)
	}
	var m2 *SplitCandidate
	for i := range cands {
		if cands[i].Kind == SplitSimple && cands[i].m == 2 {
			m2 = &cands[i]
			break
		}
	}
	if m2 == nil {
		t.Fatal("no simple m=2 candidate")
	}
	nt, err := tr.ApplySplit(*m2, "IA7")
	if err != nil {
		t.Fatal(err)
	}
	l6, err := nt.LeafOf("IA6")
	if err != nil {
		t.Fatal(err)
	}
	// IA6's incoming label "1" gains one placeholder bit → "10"; then the
	// children route on the following bit.
	if got := l6.HyperLabelString(); got != "1.1.10.0" {
		t.Errorf("IA6 hyper-label = %s, want 1.1.10.0", got)
	}
	// Discrimination happens on bit 4 (0-indexed), not bit 3.
	if got := lookupOwner(t, nt, "11100"); got != "IA6" {
		t.Errorf("11100 → %s, want IA6", got)
	}
	if got := lookupOwner(t, nt, "11101"); got != "IA7" {
		t.Errorf("11101 → %s, want IA7", got)
	}
	if got := lookupOwner(t, nt, "11110"); got != "IA6" {
		t.Errorf("11110 → %s, want IA6 (bit 3 is unused)", got)
	}
}

// TestFigure4ComplexSplit reproduces the complex split of paper Figure 4:
// re-activating an unused bit of a multi-bit label on an ancestor edge
// yields the paper's asymmetric outcome — the split leaf's hyper-label
// grows by one label while the new IAgent sits higher in the tree.
func TestFigure4ComplexSplit(t *testing.T) {
	tr := PaperTree()
	cands, err := tr.SplitCandidates("IA3", 4)
	if err != nil {
		t.Fatal(err)
	}
	// IA3's hyper-label is 1.00.0; the left-most multi-bit label is "00"
	// on the ancestor edge, so the first candidate must re-activate its
	// second bit.
	c := cands[0]
	if c.Kind != SplitComplex {
		t.Fatalf("first candidate = %v, want complex", c)
	}
	if c.BitPos != 2 {
		t.Errorf("BitPos = %d, want 2", c.BitPos)
	}
	if c.NewOnBit != 1 {
		t.Errorf("NewOnBit = %d, want 1 (recorded bit is 0)", c.NewOnBit)
	}
	nt, err := tr.ApplySplit(c, "IA8")
	if err != nil {
		t.Fatal(err)
	}
	l3, err := nt.LeafOf("IA3")
	if err != nil {
		t.Fatal(err)
	}
	if got := l3.HyperLabelString(); got != "1.0.0.0" {
		t.Errorf("IA3 hyper-label = %s, want 1.0.0.0", got)
	}
	l8, err := nt.LeafOf("IA8")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's asymmetry: the new IAgent has a shorter hyper-label.
	if got := l8.HyperLabelString(); got != "1.0.1" {
		t.Errorf("IA8 hyper-label = %s, want 1.0.1", got)
	}
	// Agents with the re-activated bit = 1 move to IA8 — from both IA3
	// and IA4 (the whole affected subtree).
	if got := lookupOwner(t, nt, "10100"); got != "IA8" {
		t.Errorf("10100 → %s, want IA8", got)
	}
	if got := lookupOwner(t, nt, "10101"); got != "IA8" {
		t.Errorf("10101 → %s, want IA8", got)
	}
	if got := lookupOwner(t, nt, "10000"); got != "IA3" {
		t.Errorf("10000 → %s, want IA3", got)
	}
	if got := lookupOwner(t, nt, "10010"); got != "IA4" {
		t.Errorf("10010 → %s, want IA4", got)
	}
}

// TestComplexSplitOnOwnEdge re-activates the unused bit of IA5's own
// incoming label "01".
func TestComplexSplitOnOwnEdge(t *testing.T) {
	tr := PaperTree()
	cands, err := tr.SplitCandidates("IA5", 4)
	if err != nil {
		t.Fatal(err)
	}
	c := cands[0]
	if c.Kind != SplitComplex || c.BitPos != 3 {
		t.Fatalf("first candidate = %v, want complex at bit 3", c)
	}
	if c.NewOnBit != 0 {
		t.Errorf("NewOnBit = %d, want 0 (recorded bit is 1)", c.NewOnBit)
	}
	nt, err := tr.ApplySplit(c, "IA8")
	if err != nil {
		t.Fatal(err)
	}
	l5, err := nt.LeafOf("IA5")
	if err != nil {
		t.Fatal(err)
	}
	if got := l5.HyperLabelString(); got != "1.1.0.1" {
		t.Errorf("IA5 hyper-label = %s, want 1.1.0.1", got)
	}
	l8, err := nt.LeafOf("IA8")
	if err != nil {
		t.Fatal(err)
	}
	if got := l8.HyperLabelString(); got != "1.1.0.0" {
		t.Errorf("IA8 hyper-label = %s, want 1.1.0.0", got)
	}
	if got := lookupOwner(t, nt, "1101"); got != "IA5" {
		t.Errorf("1101 → %s, want IA5", got)
	}
	if got := lookupOwner(t, nt, "1100"); got != "IA8" {
		t.Errorf("1100 → %s, want IA8", got)
	}
}

// TestFigure5SimpleMerge reproduces the simple merge of paper Figure 5:
// merging a leaf whose sibling is a leaf folds the two into one, the
// routing bit becoming an unused bit of the surviving label.
func TestFigure5SimpleMerge(t *testing.T) {
	tr := PaperTree()
	nt, res, err := tr.Merge("IA6")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != MergeSimple {
		t.Errorf("Kind = %v, want simple", res.Kind)
	}
	if len(res.Absorbers) != 1 || res.Absorbers[0] != "IA5" {
		t.Errorf("Absorbers = %v, want [IA5]", res.Absorbers)
	}
	if nt.Contains("IA6") {
		t.Error("IA6 still present after merge")
	}
	l5, err := nt.LeafOf("IA5")
	if err != nil {
		t.Fatal(err)
	}
	// Edge "1" into the collapsed parent concatenates with IA5's "01".
	if got := l5.HyperLabelString(); got != "1.101" {
		t.Errorf("IA5 hyper-label = %s, want 1.101", got)
	}
	// Everything that went to IA5 or IA6 now goes to IA5.
	for _, id := range []string{"1100", "1101", "1110", "1111"} {
		if got := lookupOwner(t, nt, id); got != "IA5" {
			t.Errorf("%s → %s, want IA5", id, got)
		}
	}
	if got := lookupOwner(t, nt, "10000"); got != "IA3" {
		t.Errorf("10000 → %s, want IA3 (untouched)", got)
	}
}

// TestFigure6ComplexMerge reproduces the complex merge of paper Figure 6:
// merging a leaf whose sibling is internal scatters its load over the
// sibling subtree's leaves.
func TestFigure6ComplexMerge(t *testing.T) {
	tr := PaperTree()
	nt, res, err := tr.Merge("IA0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != MergeComplex {
		t.Errorf("Kind = %v, want complex", res.Kind)
	}
	if len(res.Absorbers) != 2 {
		t.Fatalf("Absorbers = %v, want [IA1 IA2]", res.Absorbers)
	}
	l1, err := nt.LeafOf("IA1")
	if err != nil {
		t.Fatal(err)
	}
	if got := l1.HyperLabelString(); got != "01.0" {
		t.Errorf("IA1 hyper-label = %s, want 01.0", got)
	}
	// Agents formerly at IA0 (prefix 00) now scatter over IA1/IA2 by
	// their third bit; the second bit became unused.
	if got := lookupOwner(t, nt, "000"); got != "IA1" {
		t.Errorf("000 → %s, want IA1", got)
	}
	if got := lookupOwner(t, nt, "001"); got != "IA2" {
		t.Errorf("001 → %s, want IA2", got)
	}
	if got := lookupOwner(t, nt, "010"); got != "IA1" {
		t.Errorf("010 → %s, want IA1", got)
	}
}

// TestMergeRootChildCollapsesIntoRootLabel checks the RootLabel mechanism:
// merging a direct child of the root pushes the surviving edge's label into
// the ignored root prefix without shifting deeper bit positions.
func TestMergeRootChildCollapsesIntoRootLabel(t *testing.T) {
	tr := New("A")
	cands, err := tr.SplitCandidates("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := tr.ApplySplit(cands[0], "B") // A: 0, B: 1
	if err != nil {
		t.Fatal(err)
	}
	// Split B again so the root's right child is internal.
	cands, err = tr2.SplitCandidates("B", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr3, err := tr2.ApplySplit(cands[0], "C") // B: 1.0, C: 1.1
	if err != nil {
		t.Fatal(err)
	}
	// Merge A: sibling subtree (B,C) moves up; its edge label "1" joins
	// the RootLabel.
	nt, res, err := tr3.Merge("A")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != MergeComplex {
		t.Errorf("Kind = %v, want complex", res.Kind)
	}
	if got := nt.RootLabel().Raw(); got != "1" {
		t.Errorf("RootLabel = %q, want 1", got)
	}
	// Bit positions must not shift: B still serves ids with bit1 = 0
	// regardless of bit0.
	if got := lookupOwner(t, nt, "00"); got != "B" {
		t.Errorf("00 → %s, want B", got)
	}
	if got := lookupOwner(t, nt, "10"); got != "B" {
		t.Errorf("10 → %s, want B", got)
	}
	if got := lookupOwner(t, nt, "01"); got != "C" {
		t.Errorf("01 → %s, want C", got)
	}
}

// TestComplexSplitOnRootLabel re-activates a bit of the RootLabel.
func TestComplexSplitOnRootLabel(t *testing.T) {
	// Build the tree from the previous test: RootLabel "1", leaves B, C.
	tr := New("A")
	c1, _ := tr.SplitCandidates("A", 1)
	tr, err := tr.ApplySplit(c1[0], "B")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := tr.SplitCandidates("B", 1)
	tr, err = tr.ApplySplit(c2[0], "C")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err = tr.Merge("A")
	if err != nil {
		t.Fatal(err)
	}

	cands, err := tr.SplitCandidates("B", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := cands[0]
	if c.Kind != SplitComplex || c.BitPos != 0 || c.pathIndex != -1 {
		t.Fatalf("first candidate = %+v, want complex on root label bit 0", c)
	}
	// Recorded root-label bit is 1, so the new IAgent takes bit 0.
	if c.NewOnBit != 0 {
		t.Errorf("NewOnBit = %d, want 0", c.NewOnBit)
	}
	nt, err := tr.ApplySplit(c, "D")
	if err != nil {
		t.Fatal(err)
	}
	if got := nt.RootLabel().Raw(); got != "" {
		t.Errorf("RootLabel = %q, want empty after re-activation", got)
	}
	if got := lookupOwner(t, nt, "00"); got != "D" {
		t.Errorf("00 → %s, want D", got)
	}
	if got := lookupOwner(t, nt, "10"); got != "B" {
		t.Errorf("10 → %s, want B", got)
	}
	if got := lookupOwner(t, nt, "11"); got != "C" {
		t.Errorf("11 → %s, want C", got)
	}
}

func TestMergeLastLeafFails(t *testing.T) {
	tr := New("A")
	if _, _, err := tr.Merge("A"); !errors.Is(err, ErrLastLeaf) {
		t.Errorf("Merge last leaf error = %v, want ErrLastLeaf", err)
	}
}

func TestMergeUnknownIAgent(t *testing.T) {
	tr := PaperTree()
	if _, _, err := tr.Merge("nope"); !errors.Is(err, ErrUnknownIAgent) {
		t.Errorf("error = %v, want ErrUnknownIAgent", err)
	}
}

func TestSplitUnknownIAgent(t *testing.T) {
	tr := PaperTree()
	if _, err := tr.SplitCandidates("nope", 2); !errors.Is(err, ErrUnknownIAgent) {
		t.Errorf("error = %v, want ErrUnknownIAgent", err)
	}
}

func TestSplitDuplicateNewIAgent(t *testing.T) {
	tr := PaperTree()
	cands, _ := tr.SplitCandidates("IA6", 1)
	if _, err := tr.ApplySplit(cands[0], "IA0"); !errors.Is(err, ErrDuplicateIAgent) {
		t.Errorf("error = %v, want ErrDuplicateIAgent", err)
	}
}

func TestSplitEmptyNewIAgent(t *testing.T) {
	tr := PaperTree()
	cands, _ := tr.SplitCandidates("IA6", 1)
	if _, err := tr.ApplySplit(cands[0], ""); err == nil {
		t.Error("expected error for empty new IAgent id")
	}
}

func TestStaleCandidateRejected(t *testing.T) {
	tr := PaperTree()
	cands, _ := tr.SplitCandidates("IA6", 1)
	nt, err := tr.ApplySplit(cands[0], "IA7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nt.ApplySplit(cands[0], "IA9"); err == nil {
		t.Error("stale candidate accepted")
	}
}

func TestSplitDoesNotMutateOriginal(t *testing.T) {
	tr := PaperTree()
	before := tr.Describe()
	cands, _ := tr.SplitCandidates("IA3", 4)
	if _, err := tr.ApplySplit(cands[0], "IA8"); err != nil {
		t.Fatal(err)
	}
	if tr.Describe() != before {
		t.Error("ApplySplit mutated the original tree")
	}
}

func TestMergeDoesNotMutateOriginal(t *testing.T) {
	tr := PaperTree()
	before := tr.Describe()
	if _, _, err := tr.Merge("IA0"); err != nil {
		t.Fatal(err)
	}
	if tr.Describe() != before {
		t.Error("Merge mutated the original tree")
	}
}

func TestLookupIDTooShort(t *testing.T) {
	tr := PaperTree()
	if _, err := tr.Lookup(bits("1")); !errors.Is(err, ErrIDTooShort) {
		t.Errorf("error = %v, want ErrIDTooShort", err)
	}
}

func TestCandidateOrderPrefersComplex(t *testing.T) {
	tr := PaperTree()
	cands, err := tr.SplitCandidates("IA3", 3)
	if err != nil {
		t.Fatal(err)
	}
	// IA3's path has one multi-bit label ("00"), so: 1 complex candidate
	// then 3 simple candidates.
	if len(cands) != 4 {
		t.Fatalf("got %d candidates, want 4: %v", len(cands), cands)
	}
	if cands[0].Kind != SplitComplex {
		t.Errorf("cands[0] = %v, want complex", cands[0])
	}
	for i := 1; i < 4; i++ {
		if cands[i].Kind != SplitSimple || cands[i].m != i {
			t.Errorf("cands[%d] = %v, want simple m=%d", i, cands[i], i)
		}
	}
}

func TestRenderContainsAllIAgents(t *testing.T) {
	tr := PaperTree()
	s := tr.String()
	for _, ia := range tr.IAgents() {
		if !strings.Contains(s, ia) {
			t.Errorf("String() missing %s:\n%s", ia, s)
		}
	}
	d := tr.Describe()
	if !strings.Contains(d, "1.00.0") {
		t.Errorf("Describe() missing hyper-label:\n%s", d)
	}
	if !strings.Contains(d, "10?0*") {
		t.Errorf("Describe() missing served pattern:\n%s", d)
	}
}

func TestRenderSingleLeaf(t *testing.T) {
	tr := New("solo")
	if !strings.Contains(tr.String(), "solo") {
		t.Errorf("String() = %q", tr.String())
	}
}

func TestHeight(t *testing.T) {
	if got := PaperTree().Height(); got != 3 {
		t.Errorf("Height = %d, want 3", got)
	}
}

// randomID draws a random 64-bit id.
func randomID(r *rand.Rand) bitstr.Bits {
	return bitstr.FromUint64(r.Uint64(), 64)
}

// TestPropertyLookupTotalAndUnique checks that after arbitrary split/merge
// sequences every id maps to exactly one existing IAgent.
func TestPropertyLookupTotalAndUnique(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := New("IA0")
	next := 1
	for step := 0; step < 300; step++ {
		agents := tr.IAgents()
		if r.Intn(3) > 0 || len(agents) == 1 {
			// Split a random leaf with a random candidate.
			target := agents[r.Intn(len(agents))]
			cands, err := tr.SplitCandidates(target, 3)
			if err != nil {
				t.Fatal(err)
			}
			c := cands[r.Intn(len(cands))]
			nt, err := tr.ApplySplit(c, newIAgentID(&next))
			if err != nil {
				t.Fatalf("step %d split %v: %v", step, c, err)
			}
			tr = nt
		} else {
			target := agents[r.Intn(len(agents))]
			nt, _, err := tr.Merge(target)
			if err != nil {
				t.Fatalf("step %d merge %s: %v", step, target, err)
			}
			tr = nt
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: invalid tree: %v", step, err)
		}
		present := make(map[string]bool)
		for _, ia := range tr.IAgents() {
			present[ia] = true
		}
		for i := 0; i < 20; i++ {
			id := randomID(r)
			owner, err := tr.Lookup(id)
			if err != nil {
				t.Fatalf("step %d: Lookup(%s): %v", step, id, err)
			}
			if !present[owner] {
				t.Fatalf("step %d: Lookup returned absent IAgent %q", step, owner)
			}
		}
	}
}

func newIAgentID(next *int) string {
	id := "IA" + string(rune('A'+(*next)%26)) + "-" + itoa(*next)
	*next++
	return id
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestPropertySplitLocality checks the paper's §2.1 requirement: a split
// only moves agents to the new IAgent; every id keeps its owner or moves to
// the new IAgent, and for simple splits only the split IAgent's ids move.
func TestPropertySplitLocality(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := PaperTree()
	sample := make([]bitstr.Bits, 500)
	for i := range sample {
		sample[i] = randomID(r)
	}
	for _, target := range tr.IAgents() {
		cands, err := tr.SplitCandidates(target, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			nt, err := tr.ApplySplit(c, "NEW")
			if err != nil {
				t.Fatalf("split %v: %v", c, err)
			}
			for _, id := range sample {
				before, err := tr.Lookup(id)
				if err != nil {
					t.Fatal(err)
				}
				after, err := nt.Lookup(id)
				if err != nil {
					t.Fatal(err)
				}
				if after != before && after != "NEW" {
					t.Fatalf("split %v moved id %s from %s to %s (not the new IAgent)", c, id, before, after)
				}
				if c.Kind == SplitSimple && after == "NEW" && before != target {
					t.Fatalf("simple split %v stole id %s from %s", c, id, before)
				}
				// The discriminating bit fully determines movement to NEW.
				if after == "NEW" && id.At(c.BitPos) != c.NewOnBit {
					t.Fatalf("split %v: id %s moved to NEW but bit %d = %d, NewOnBit = %d",
						c, id, c.BitPos, id.At(c.BitPos), c.NewOnBit)
				}
			}
		}
	}
}

// TestPropertyMergeLocality checks that a merge only moves the merged
// IAgent's ids, and only into the reported absorbers.
func TestPropertyMergeLocality(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tr := PaperTree()
	sample := make([]bitstr.Bits, 500)
	for i := range sample {
		sample[i] = randomID(r)
	}
	for _, target := range tr.IAgents() {
		nt, res, err := tr.Merge(target)
		if err != nil {
			t.Fatal(err)
		}
		absorber := make(map[string]bool)
		for _, a := range res.Absorbers {
			absorber[a] = true
		}
		for _, id := range sample {
			before, err := tr.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			after, err := nt.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if before == target {
				if !absorber[after] {
					t.Fatalf("merge %s sent id %s to non-absorber %s", target, id, after)
				}
			} else if after != before {
				t.Fatalf("merge %s moved unrelated id %s from %s to %s", target, id, before, after)
			}
		}
	}
}

// TestPropertySplitThenMergeRestoresMapping checks that merging the IAgent
// created by a simple split restores the original mapping.
func TestPropertySplitThenMergeRestoresMapping(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tr := PaperTree()
	sample := make([]bitstr.Bits, 300)
	for i := range sample {
		sample[i] = randomID(r)
	}
	for _, target := range tr.IAgents() {
		cands, err := tr.SplitCandidates(target, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The last candidate is the simple m=1 split.
		c := cands[len(cands)-1]
		if c.Kind != SplitSimple {
			t.Fatalf("expected simple candidate, got %v", c)
		}
		split, err := tr.ApplySplit(c, "NEW")
		if err != nil {
			t.Fatal(err)
		}
		merged, res, err := split.Merge("NEW")
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != MergeSimple || len(res.Absorbers) != 1 || res.Absorbers[0] != target {
			t.Fatalf("merge result = %+v, want simple into %s", res, target)
		}
		for _, id := range sample {
			before, err := tr.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			after, err := merged.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if before != after {
				t.Fatalf("split+merge of %s changed id %s: %s → %s", target, id, before, after)
			}
		}
	}
}

// TestPropertySerializeRoundTripPreservesLookup round-trips random trees through
// Serialize and verifies the mapping is intact.
func TestPropertySerializeRoundTripPreservesLookup(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tr := New("IA0")
	next := 1
	for step := 0; step < 40; step++ {
		agents := tr.IAgents()
		target := agents[r.Intn(len(agents))]
		cands, err := tr.SplitCandidates(target, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr, err = tr.ApplySplit(cands[r.Intn(len(cands))], newIAgentID(&next))
		if err != nil {
			t.Fatal(err)
		}
	}
	back, err := Deserialize(tr.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		id := randomID(r)
		a, err := tr.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("round trip changed owner of %s: %s → %s", id, a, b)
		}
	}
}

// TestPropertyLeavesCoverIDSpace checks that leaf served-patterns partition
// the id space: the hyper-label valid bits of distinct leaves must conflict
// somewhere.
func TestPropertyLeavesCoverIDSpace(t *testing.T) {
	tr := PaperTree()
	leaves := tr.Leaves()
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			if !patternsConflict(tr, leaves[i], leaves[j]) {
				t.Errorf("leaves %s and %s have non-conflicting patterns %s / %s",
					leaves[i].IAgent, leaves[j].IAgent, tr.servedPattern(leaves[i]), tr.servedPattern(leaves[j]))
			}
		}
	}
}

// patternsConflict reports whether two leaves' valid-bit patterns disagree
// at some position (so no id can match both).
func patternsConflict(t *Tree, a, b Leaf) bool {
	pa, pb := t.servedPattern(a), t.servedPattern(b)
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	for i := 0; i < n; i++ {
		ca, cb := pa[i], pb[i]
		if ca == '*' || cb == '*' {
			return false
		}
		if ca != '?' && cb != '?' && ca != cb {
			return true
		}
	}
	return false
}

func TestDOTRendering(t *testing.T) {
	dot := PaperTree().DOT()
	for _, want := range []string{"digraph hashtree", "IA0", "IA6", `label="00"`, "shape=box", "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// One box per IAgent.
	if got := strings.Count(dot, "shape=box"); got != 7 {
		t.Errorf("DOT has %d leaf boxes, want 7", got)
	}
}
