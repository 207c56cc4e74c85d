// The framed binary form of a whole capability index, which older builds
// wrote as the trailing field of an IAgent's snapshot section and recovery
// still reads: one frame (magic "ACAP") with its own version, independent of
// the location-table and hash-tree formats. Its payload is uvarint agent
// count, then per agent a length-prefixed id, uvarint tag count, and the
// tags.
//
// Deserialize rejects other frame kinds, duplicate agents, oversized
// ids/tags, impossible counts and trailing bytes with wire's typed errors,
// and never panics on hostile input (see FuzzApply).
package capindex

import (
	"fmt"

	"agentloc/internal/ids"
	"agentloc/internal/wire"
)

// SerializeMagic marks a capability-index frame.
var SerializeMagic = [4]byte{'A', 'C', 'A', 'P'}

// SerializeVersion is the current capability frame format version.
const SerializeVersion uint16 = 1

// kindFull is the one frame kind: the whole index.
const kindFull byte = 0

// Deserialize decodes one capability frame into a fresh index.
func Deserialize(data []byte) (*Index, error) {
	f, n, err := wire.DecodeFrame(data, SerializeMagic, SerializeVersion)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after capability frame", wire.ErrCorrupt, len(data)-n)
	}
	if f.Kind != kindFull {
		return nil, fmt.Errorf("%w: unknown capability frame kind %d", wire.ErrCorrupt, f.Kind)
	}
	d := wire.NewDec(f.Payload)
	count, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: agent count %d exceeds %d remaining bytes", wire.ErrCorrupt, count, d.Remaining())
	}
	agents := make(map[ids.AgentID][]string, count)
	for i := uint64(0); i < count; i++ {
		id, err := d.String(wire.MaxIDLen)
		if err != nil {
			return nil, err
		}
		agent := ids.AgentID(id)
		if _, dup := agents[agent]; dup {
			return nil, fmt.Errorf("%w: duplicate agent %q in capability frame", wire.ErrCorrupt, id)
		}
		tags, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if tags > uint64(d.Remaining()) {
			return nil, fmt.Errorf("%w: capability count %d exceeds %d remaining bytes", wire.ErrCorrupt, tags, d.Remaining())
		}
		caps := make([]string, 0, tags)
		for j := uint64(0); j < tags; j++ {
			c, err := d.String(wire.MaxIDLen)
			if err != nil {
				return nil, err
			}
			caps = append(caps, c)
		}
		agents[agent] = caps
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	x := New()
	x.Adopt(agents)
	return x, nil
}
