// Package hashtree implements the extendible hash function of the paper as a
// binary "hash tree" (paper §3):
//
//   - Each edge carries a label, a non-empty bit string. The first bit of a
//     label is its valid bit: 0 for an edge to a left child, 1 for an edge to
//     a right child. Any further bits of a label are "unused" — they are
//     skipped during lookup but may later be re-activated by a complex split.
//   - Each leaf corresponds to one IAgent. The concatenation of the labels
//     on the path from the root to a leaf is the leaf's hyper-label.
//   - A binary agent id is compatible with exactly one leaf: starting at the
//     root, route on the current bit (0 = left, 1 = right) and then skip the
//     remaining k-1 bits of the chosen k-bit label.
//
// Multi-bit labels arise from merges (the routing bit of a collapsed node
// becomes an unused bit) and from simple splits with m > 1 (the m-1 skipped
// bits are appended to the split leaf's incoming label). A complex split
// re-activates an unused bit.
//
// One representation detail goes beyond the paper: when a child of the root
// is merged away, the root collapses and the valid bit of the surviving
// edge has no parent edge to be appended to. The tree therefore keeps a
// RootLabel — a (possibly empty) string of ignored bits consumed before any
// routing decision. It behaves exactly like the unused bits of an ordinary
// label, including being a complex-split candidate.
//
// Trees are immutable: every mutation returns a new *Tree with an
// incremented Version. This mirrors the paper's primary/secondary copy
// scheme — the HAgent holds the newest version and stale LHAgent copies are
// detected by version comparison.
package hashtree

import (
	"errors"
	"fmt"
	"sort"

	"agentloc/internal/bitstr"
)

// Common errors returned by tree operations.
var (
	// ErrUnknownIAgent is returned when an operation names an IAgent that
	// owns no leaf of the tree.
	ErrUnknownIAgent = errors.New("hashtree: unknown IAgent")
	// ErrIDTooShort is returned by Lookup when the binary id is exhausted
	// before a leaf is reached.
	ErrIDTooShort = errors.New("hashtree: binary id shorter than tree depth")
	// ErrLastLeaf is returned when attempting to merge the only leaf.
	ErrLastLeaf = errors.New("hashtree: cannot merge the only IAgent")
	// ErrDuplicateIAgent is returned when a split would introduce an IAgent
	// id that already owns a leaf.
	ErrDuplicateIAgent = errors.New("hashtree: IAgent already present")
)

// node is either a leaf (IAgent != "") or an internal node with exactly two
// labeled children.
type node struct {
	iagent string // leaf: id of the owning IAgent

	// internal: both non-nil, labels non-empty, left label starts with 0,
	// right label starts with 1.
	leftLabel  bitstr.Bits
	left       *node
	rightLabel bitstr.Bits
	right      *node
}

func (n *node) isLeaf() bool { return n.left == nil }

// Tree is an immutable hash tree. Construct one with New or Deserialize and
// derive new versions with ApplySplit / Merge.
type Tree struct {
	version   uint64
	rootLabel bitstr.Bits
	root      *node
}

// New returns a single-leaf tree, version 1, in which the given IAgent
// serves every agent.
func New(iagent string) *Tree {
	return &Tree{version: 1, root: &node{iagent: iagent}}
}

// Version returns the tree's version. Versions increase by one per applied
// split or merge.
func (t *Tree) Version() uint64 { return t.version }

// RootLabel returns the ignored bit prefix consumed before the first routing
// decision. It is empty unless a root child has been merged away.
func (t *Tree) RootLabel() bitstr.Bits { return t.rootLabel }

// Lookup returns the id of the IAgent responsible for the given binary agent
// id (paper §3's traversal procedure). It fails with ErrIDTooShort if the id
// has fewer bits than the traversed path consumes.
func (t *Tree) Lookup(binary bitstr.Bits) (string, error) {
	pos := t.rootLabel.Len()
	n := t.root
	for !n.isLeaf() {
		if pos >= binary.Len() {
			return "", fmt.Errorf("%w: need bit %d of %d-bit id", ErrIDTooShort, pos, binary.Len())
		}
		if binary.At(pos) == 0 {
			pos += n.leftLabel.Len()
			n = n.left
		} else {
			pos += n.rightLabel.Len()
			n = n.right
		}
	}
	return n.iagent, nil
}

// LookupHash is Lookup over a 64-bit id word whose most significant bit is
// bit 0 of the binary id — ids.AgentID.Hash64, of which AgentID.Binary is the
// rendering — so the per-operation paths resolve an owner without
// materialising the bit string. For every h, LookupHash(h) equals
// Lookup(bitstr.FromUint64(h, 64)), errors included.
func (t *Tree) LookupHash(h uint64) (string, error) {
	pos := t.rootLabel.Len()
	n := t.root
	for !n.isLeaf() {
		if pos >= 64 {
			return "", fmt.Errorf("%w: need bit %d of 64-bit id", ErrIDTooShort, pos)
		}
		if (h>>(63-pos))&1 == 0 {
			pos += n.leftLabel.Len()
			n = n.left
		} else {
			pos += n.rightLabel.Len()
			n = n.right
		}
	}
	return n.iagent, nil
}

// Leaf describes one leaf of the tree.
type Leaf struct {
	// IAgent is the id of the IAgent owning the leaf.
	IAgent string
	// HyperLabel is the sequence of edge labels from root to leaf
	// (paper §3). It does not include the tree's RootLabel.
	HyperLabel []bitstr.Bits
	// Depth is the number of edges from the root.
	Depth int
}

// Prefix returns the concatenation of the leaf's hyper-label, i.e. the raw
// bit pattern recorded along the path (valid and unused bits alike).
func (l Leaf) Prefix() bitstr.Bits {
	out := bitstr.Empty
	for _, lab := range l.HyperLabel {
		out = out.Concat(lab)
	}
	return out
}

// HyperLabelString renders the hyper-label in the paper's dotted notation,
// e.g. "1.00.1".
func (l Leaf) HyperLabelString() string {
	if len(l.HyperLabel) == 0 {
		return "ε"
	}
	s := ""
	for i, lab := range l.HyperLabel {
		if i > 0 {
			s += "."
		}
		s += lab.Raw()
	}
	return s
}

// Leaves returns all leaves, ordered left to right.
func (t *Tree) Leaves() []Leaf {
	var out []Leaf
	var walk func(n *node, hyper []bitstr.Bits)
	walk = func(n *node, hyper []bitstr.Bits) {
		if n.isLeaf() {
			h := make([]bitstr.Bits, len(hyper))
			copy(h, hyper)
			out = append(out, Leaf{IAgent: n.iagent, HyperLabel: h, Depth: len(h)})
			return
		}
		walk(n.left, append(hyper, n.leftLabel))
		walk(n.right, append(hyper, n.rightLabel))
	}
	walk(t.root, nil)
	return out
}

// IAgents returns the ids of all IAgents in the tree, sorted.
func (t *Tree) IAgents() []string {
	leaves := t.Leaves()
	out := make([]string, len(leaves))
	for i, l := range leaves {
		out[i] = l.IAgent
	}
	sort.Strings(out)
	return out
}

// NumLeaves returns the number of IAgents (leaves).
func (t *Tree) NumLeaves() int { return len(t.Leaves()) }

// Contains reports whether the IAgent owns a leaf of the tree.
func (t *Tree) Contains(iagent string) bool {
	_, _, err := t.findLeaf(iagent)
	return err == nil
}

// LeafOf returns the leaf owned by the IAgent.
func (t *Tree) LeafOf(iagent string) (Leaf, error) {
	for _, l := range t.Leaves() {
		if l.IAgent == iagent {
			return l, nil
		}
	}
	return Leaf{}, fmt.Errorf("%w: %q", ErrUnknownIAgent, iagent)
}

// Height returns the maximum leaf depth in edges. A single-leaf tree has
// height 0.
func (t *Tree) Height() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		if n.isLeaf() {
			return 0
		}
		lh, rh := walk(n.left), walk(n.right)
		if rh > lh {
			lh = rh
		}
		return lh + 1
	}
	return walk(t.root)
}

// Validate checks the structural invariants: internal nodes have two
// children, edge labels are non-empty with correct valid bits, and IAgent
// ids are unique and non-empty.
func (t *Tree) Validate() error {
	seen := make(map[string]bool)
	var walk func(n *node, path string) error
	walk = func(n *node, path string) error {
		if n == nil {
			return fmt.Errorf("hashtree: nil node at %q", path)
		}
		if n.isLeaf() {
			if n.iagent == "" {
				return fmt.Errorf("hashtree: leaf with empty IAgent at %q", path)
			}
			if seen[n.iagent] {
				return fmt.Errorf("hashtree: duplicate IAgent %q", n.iagent)
			}
			seen[n.iagent] = true
			if n.right != nil {
				return fmt.Errorf("hashtree: leaf %q has a right child", n.iagent)
			}
			return nil
		}
		if n.iagent != "" {
			return fmt.Errorf("hashtree: internal node carries IAgent %q at %q", n.iagent, path)
		}
		if n.right == nil {
			return fmt.Errorf("hashtree: internal node missing right child at %q", path)
		}
		if n.leftLabel.IsEmpty() || n.leftLabel.At(0) != 0 {
			return fmt.Errorf("hashtree: bad left label %s at %q", n.leftLabel, path)
		}
		if n.rightLabel.IsEmpty() || n.rightLabel.At(0) != 1 {
			return fmt.Errorf("hashtree: bad right label %s at %q", n.rightLabel, path)
		}
		if err := walk(n.left, path+"/"+n.leftLabel.Raw()); err != nil {
			return err
		}
		return walk(n.right, path+"/"+n.rightLabel.Raw())
	}
	return walk(t.root, "")
}

// clone returns a deep copy of the tree with the same version.
func (t *Tree) clone() *Tree {
	var cp func(n *node) *node
	cp = func(n *node) *node {
		if n == nil {
			return nil
		}
		return &node{
			iagent:     n.iagent,
			leftLabel:  n.leftLabel,
			left:       cp(n.left),
			rightLabel: n.rightLabel,
			right:      cp(n.right),
		}
	}
	return &Tree{version: t.version, rootLabel: t.rootLabel, root: cp(t.root)}
}

// findLeaf locates the leaf owned by iagent and returns it together with its
// parent (nil if the leaf is the root).
func (t *Tree) findLeaf(iagent string) (leaf, parent *node, err error) {
	var walk func(n, p *node) (*node, *node)
	walk = func(n, p *node) (*node, *node) {
		if n.isLeaf() {
			if n.iagent == iagent {
				return n, p
			}
			return nil, nil
		}
		if l, lp := walk(n.left, n); l != nil {
			return l, lp
		}
		return walk(n.right, n)
	}
	l, p := walk(t.root, nil)
	if l == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownIAgent, iagent)
	}
	return l, p, nil
}

// pathTo returns the nodes from the root down to the leaf owned by iagent,
// excluding the leaf itself, together with, for each step, whether the path
// went left.
func (t *Tree) pathTo(iagent string) (nodes []*node, wentLeft []bool, err error) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n.isLeaf() {
			return n.iagent == iagent
		}
		nodes = append(nodes, n)
		wentLeft = append(wentLeft, true)
		if walk(n.left) {
			return true
		}
		wentLeft[len(wentLeft)-1] = false
		if walk(n.right) {
			return true
		}
		nodes = nodes[:len(nodes)-1]
		wentLeft = wentLeft[:len(wentLeft)-1]
		return false
	}
	if !walk(t.root) {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownIAgent, iagent)
	}
	return nodes, wentLeft, nil
}
