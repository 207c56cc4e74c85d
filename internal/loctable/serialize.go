package loctable

import (
	"fmt"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/wire"
)

// This file gives the location table a stable, versioned binary form for
// snapshot files, parallel to hashtree's Serialize. The table streams out
// stripe-by-stripe under one stripe read lock at a time — a durable dump of
// a live table never pauses the locate hot path and never materializes a
// whole-table map.
//
// Payload layout (format version 1):
//
//	uvarint  stripe count (chunk count only; entries rehash on load)
//	per stripe: uvarint entry count, then (string agent, string node) pairs
//
// Load counters are not part of the dump: they are split-decision statistics,
// rebuilt by traffic after a cold restart.

// SerializeMagic identifies a serialized location table.
var SerializeMagic = [4]byte{'A', 'L', 'O', 'C'}

// SerializeVersion is the current binary format version.
const SerializeVersion = 1

// Serialize encodes the table into its framed binary form. Like Snapshot it
// is weakly consistent: entries mutated on already-visited stripes during
// the dump may be missed, which WAL replay on recovery papers over.
func (t *Table) Serialize() ([]byte, error) {
	payload := wire.AppendUvarint(nil, uint64(len(t.stripes)))
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		payload = wire.AppendUvarint(payload, uint64(s.used))
		for j := range s.entries {
			if e := &s.entries[j]; e.tag != 0 {
				payload = wire.AppendString(payload, string(s.key(e)))
				payload = wire.AppendString(payload, string(t.nodeAt(e.node)))
			}
		}
		s.mu.RUnlock()
	}
	return wire.AppendFrame(nil, SerializeMagic, SerializeVersion, 0, payload), nil
}

// Deserialize rebuilds a table from Serialize output. Entries rehash into a
// fresh table with the default stripe layout, so dumps are portable across
// stripe configurations. Errors are typed: wire.ErrTruncated,
// wire.ErrCorrupt or wire.ErrUnsupportedVersion, never a panic.
func Deserialize(data []byte) (*Table, error) {
	frame, n, err := wire.DecodeFrame(data, SerializeMagic, SerializeVersion)
	if err != nil {
		return nil, fmt.Errorf("loctable: deserialize: %w", err)
	}
	if n != len(data) {
		return nil, fmt.Errorf("loctable: deserialize: %w: %d trailing bytes", wire.ErrCorrupt, len(data)-n)
	}
	d := wire.NewDec(frame.Payload)
	stripes, err := d.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("loctable: deserialize: %w", err)
	}
	// Real tables have a handful of stripes; more is a mangled stream.
	const maxStripes = 1 << 16
	if stripes == 0 || stripes > maxStripes {
		return nil, fmt.Errorf("loctable: deserialize: %w: impossible stripe count %d", wire.ErrCorrupt, stripes)
	}
	t := New()
	for i := uint64(0); i < stripes; i++ {
		count, err := d.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("loctable: deserialize stripe %d: %w", i, err)
		}
		// Every entry takes at least two length-prefix bytes, so a count
		// beyond half the remaining payload cannot be satisfied.
		if count > uint64(d.Remaining()) {
			return nil, fmt.Errorf("loctable: deserialize stripe %d: %w: %d entries in %d bytes", i, wire.ErrCorrupt, count, d.Remaining())
		}
		for j := uint64(0); j < count; j++ {
			agent, err := d.String(wire.MaxIDLen)
			if err != nil {
				return nil, fmt.Errorf("loctable: deserialize agent: %w", err)
			}
			node, err := d.String(wire.MaxIDLen)
			if err != nil {
				return nil, fmt.Errorf("loctable: deserialize node: %w", err)
			}
			if agent == "" {
				return nil, fmt.Errorf("loctable: deserialize: %w: empty agent id", wire.ErrCorrupt)
			}
			if _, dup := t.Get(ids.AgentID(agent)); dup {
				return nil, fmt.Errorf("loctable: deserialize: %w: duplicate agent %q", wire.ErrCorrupt, agent)
			}
			t.Put(ids.AgentID(agent), platform.NodeID(node))
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("loctable: deserialize: %w", err)
	}
	return t, nil
}
