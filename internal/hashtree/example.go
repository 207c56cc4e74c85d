package hashtree

import "agentloc/internal/bitstr"

// PaperTree returns the running example used throughout the documentation
// and the figure tests: a seven-IAgent tree structurally equivalent to the
// paper's Figure 1. (The paper's exact bit values were lost in the source
// text's OCR; this instance preserves every structural feature the worked
// examples rely on: seven leaves, a multi-bit label on an internal edge —
// "00" into the IA3/IA4 subtree — and a multi-bit label on a leaf edge —
// "01" into IA5, so that IA5 serves all agents with prefix 110x, x ∈ {0,1}.)
//
//	hash tree v1 (rootLabel=ε)
//	├─0─ (·)
//	│    ├─0─ IA0             hyper-label 0.0
//	│    └─1─ (·)
//	│         ├─0─ IA1        hyper-label 0.1.0
//	│         └─1─ IA2        hyper-label 0.1.1
//	└─1─ (·)
//	     ├─00─ (·)            (second bit unused)
//	     │     ├─0─ IA3       hyper-label 1.00.0
//	     │     └─1─ IA4       hyper-label 1.00.1
//	     └─1─ (·)
//	          ├─01─ IA5       hyper-label 1.1.01  (fourth bit unused)
//	          └─1── IA6       hyper-label 1.1.1
func PaperTree() *Tree {
	return &Tree{version: 1, root: inner(
		"0", inner(
			"0", leaf("IA0"),
			"1", inner("0", leaf("IA1"), "1", leaf("IA2")),
		),
		"1", inner(
			"00", inner("0", leaf("IA3"), "1", leaf("IA4")),
			"1", inner("01", leaf("IA5"), "1", leaf("IA6")),
		),
	)}
}

// leaf and inner spell a tree literal. Labels are bit strings; the
// valid-bit rule is Validate's to check, not theirs.
func leaf(iagent string) *node { return &node{iagent: iagent} }

func inner(leftLabel string, left *node, rightLabel string, right *node) *node {
	return &node{leftLabel: bitstr.MustParse(leftLabel), left: left, rightLabel: bitstr.MustParse(rightLabel), right: right}
}
