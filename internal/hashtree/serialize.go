package hashtree

import (
	"fmt"

	"agentloc/internal/bitstr"
	"agentloc/internal/wire"
)

// This file gives the hash tree its one encoded form, modeled on the
// pachyderm hashtree Serialize/Deserialize interface: magic + format version
// + CRC in one frame, typed errors (wire.ErrCorrupt / ErrTruncated /
// ErrUnsupportedVersion) for anything that is not a well-formed tree, and
// never a panic on hostile input. Messages and snapshot files embed these
// bytes verbatim (inside core's hash-state codec), so the format must only
// ever change by bumping SerializeVersion and teaching Deserialize the old
// layouts.
//
// Payload layout (format version 1), all via the wire helpers:
//
//	uvarint  tree version
//	string   root label (raw bit characters)
//	node     preorder: tag byte (0 = leaf, 1 = internal);
//	         leaf:     string iagent
//	         internal: string leftLabel, node, string rightLabel, node

// SerializeMagic identifies a serialized hash tree.
var SerializeMagic = [4]byte{'A', 'H', 'T', 'R'}

// SerializeVersion is the current binary format version.
const SerializeVersion = 1

const (
	tagLeaf     = 0
	tagInternal = 1
)

// maxLabelLen bounds a single encoded label or IAgent id; real labels are a
// few bits and ids short strings, so anything near the bound is corruption.
const maxLabelLen = 1 << 16

// maxSerializedDepth bounds decode recursion so a malicious payload cannot
// overflow the stack. Real trees are a few dozen levels deep.
const maxSerializedDepth = 4096

// Serialize encodes the tree into its framed binary form.
func (t *Tree) Serialize() []byte {
	payload := wire.AppendUvarint(nil, t.version)
	payload = wire.AppendString(payload, t.rootLabel.Raw())
	payload = appendNode(payload, t.root)
	return wire.AppendFrame(nil, SerializeMagic, SerializeVersion, 0, payload)
}

func appendNode(dst []byte, n *node) []byte {
	if n.isLeaf() {
		dst = append(dst, tagLeaf)
		return wire.AppendString(dst, n.iagent)
	}
	dst = append(dst, tagInternal)
	dst = wire.AppendString(dst, n.leftLabel.Raw())
	dst = appendNode(dst, n.left)
	dst = wire.AppendString(dst, n.rightLabel.Raw())
	return appendNode(dst, n.right)
}

// Deserialize rebuilds a tree from Serialize output, validating structure.
// Errors are typed: wire.ErrTruncated, wire.ErrCorrupt or
// wire.ErrUnsupportedVersion, never a panic.
func Deserialize(data []byte) (*Tree, error) {
	frame, n, err := wire.DecodeFrame(data, SerializeMagic, SerializeVersion)
	if err != nil {
		return nil, fmt.Errorf("hashtree: deserialize: %w", err)
	}
	if n != len(data) {
		return nil, fmt.Errorf("hashtree: deserialize: %w: %d trailing bytes", wire.ErrCorrupt, len(data)-n)
	}
	d := wire.NewDec(frame.Payload)
	version, err := d.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("hashtree: deserialize: %w", err)
	}
	rootRaw, err := d.String(maxLabelLen)
	if err != nil {
		return nil, fmt.Errorf("hashtree: deserialize root label: %w", err)
	}
	rootLabel, err := bitstr.Parse(rootRaw)
	if err != nil {
		return nil, fmt.Errorf("hashtree: deserialize: %w: root label: %v", wire.ErrCorrupt, err)
	}
	root, err := decodeNode(d, 0)
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("hashtree: deserialize: %w", err)
	}
	t := &Tree{version: version, rootLabel: rootLabel, root: root}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("hashtree: deserialize: %w: %v", wire.ErrCorrupt, err)
	}
	return t, nil
}

func decodeNode(d *wire.Dec, depth int) (*node, error) {
	if depth > maxSerializedDepth {
		return nil, fmt.Errorf("hashtree: deserialize: %w: tree deeper than %d", wire.ErrCorrupt, maxSerializedDepth)
	}
	tag, err := d.Byte()
	if err != nil {
		return nil, fmt.Errorf("hashtree: deserialize node: %w", err)
	}
	switch tag {
	case tagLeaf:
		iagent, err := d.String(maxLabelLen)
		if err != nil {
			return nil, fmt.Errorf("hashtree: deserialize leaf: %w", err)
		}
		return &node{iagent: iagent}, nil
	case tagInternal:
		ll, err := d.String(maxLabelLen)
		if err != nil {
			return nil, fmt.Errorf("hashtree: deserialize left label: %w", err)
		}
		leftLabel, err := bitstr.Parse(ll)
		if err != nil {
			return nil, fmt.Errorf("hashtree: deserialize: %w: left label: %v", wire.ErrCorrupt, err)
		}
		left, err := decodeNode(d, depth+1)
		if err != nil {
			return nil, err
		}
		rl, err := d.String(maxLabelLen)
		if err != nil {
			return nil, fmt.Errorf("hashtree: deserialize right label: %w", err)
		}
		rightLabel, err := bitstr.Parse(rl)
		if err != nil {
			return nil, fmt.Errorf("hashtree: deserialize: %w: right label: %v", wire.ErrCorrupt, err)
		}
		right, err := decodeNode(d, depth+1)
		if err != nil {
			return nil, err
		}
		return &node{leftLabel: leftLabel, left: left, rightLabel: rightLabel, right: right}, nil
	default:
		return nil, fmt.Errorf("hashtree: deserialize: %w: unknown node tag %d", wire.ErrCorrupt, tag)
	}
}
