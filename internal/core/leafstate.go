package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"agentloc/internal/capindex"
	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/wire"
)

// leafState is what a leaf knows of the agents hashed to it (paper §2.2):
// where each is and the requests it drew, the residence handle it is bound
// to, and what it advertises. apply is the only code that writes the three
// structures and get, each and locate the only code that reads an agent out
// of them, so the live leaf, a held sibling copy, a handoff, a durable
// section and a WAL replay cannot disagree on an agent's record.
//
// Every form a leaf's state leaves in is a record stream (appendRecords): one
// length-prefixed snapshot.Record per agent, the record the reader yields.
// The body of its durable section is that stream; a handoff carries the
// records of the agents a rehash moves; a WAL record is one record of it, and
// a checkpoint push ships a suffix of the records the leaf's writes were
// logged as (recordLog). A leaf never leaves whole: an IAgent does not move.
type leafState struct {
	table     *loctable.Table
	residence *ResidenceTable
	caps      *capindex.Index
}

func newLeafState() leafState {
	return leafState{table: loctable.New(), residence: NewResidenceTable(), caps: capindex.New()}
}

// change is one mutation of a leaf's state.
type change struct {
	agent ids.AgentID
	hash  uint64          // agent.Hash64()
	node  platform.NodeID // empty: the change only charges load to an entry the table holds
	// handle binds the agent to a residence handle at node; empty unbinds it.
	handle ids.ResidenceID
	caps   []string // replaces the agent's capability set; empty keeps it
	load   uint64   // requests to add to the agent's slot
	// handoff marks a binding assembled by another leaf, which sets the
	// handle's address only where this leaf holds none (ResidenceTable.Bind).
	handoff bool
	delete  bool // drops the entry, its binding and its capability set
	// view marks an agent id that is a view: of a table's key arena (a reader
	// record), which a map keeping the id would pin, or of a request frame
	// (a handoff, a register or an update), which is reused once served.
	view bool
}

// kept is the change's agent id as a map outside the table may keep it: a
// view is copied, so that dropping the table it came from — a held copy after
// a takeover — frees its arena.
func (c *change) kept() ids.AgentID {
	if c.view {
		return ids.AgentID(strings.Clone(string(c.agent)))
	}
	return c.agent
}

// apply makes the changes in order, each to the table, then the residence
// record, then the capability index. It logs and notes nothing: the live leaf
// calls it through write, a held copy and a recovery directly. The table
// copies every id it stores; the binding and the capability index keep
// c.kept().
func (s leafState) apply(changes []change) {
	for i := range changes {
		c := &changes[i]
		switch {
		case c.delete:
			s.table.DeleteHashed(c.agent, c.hash)
			s.residence.Unbind(c.agent)
			s.caps.Remove(c.agent)
			continue
		case c.node == "":
			s.table.AddLoadHashed(c.agent, c.hash, c.load)
			continue
		}
		s.table.PutHashed(c.agent, c.hash, c.node, c.load)
		if c.handle == "" {
			s.residence.Unbind(c.agent)
		} else {
			s.residence.Bind(c.kept(), c.handle, c.node, c.handoff)
		}
		if len(c.caps) > 0 {
			s.caps.Set(c.kept(), c.caps)
		}
	}
}

// record is one agent as the reader yields it: node is its handle's address
// when it is bound (the handle moves with the group even when the member's
// entry is older), else its table entry; caps is the index's own list. agent
// is a view of the table's key arena (loctable.Slot), so a change made of a
// record sets view.
type record struct {
	agent  ids.AgentID
	hash   uint64
	node   platform.NodeID
	handle ids.ResidenceID
	caps   []string
	load   uint32
}

// get reads one agent's record.
func (s leafState) get(agent ids.AgentID) (record, bool) {
	slot, ok := s.table.GetSlot(agent, agent.Hash64())
	if !ok {
		return record{}, false
	}
	return s.resolve(slot, true, true), true
}

// each calls f with the record of every agent whose hash owned accepts (nil
// accepts all) until f returns false. It reads a stripe at a time under that
// stripe's lock alone and calls f with no lock held, so f may block; a write
// the walk misses is in the checkpoint suffix, for the next delta.
func (s leafState) each(owned func(hash uint64) bool, f func(record) bool) {
	var slots []loctable.Slot
	for i := 0; i < s.table.Stripes(); i++ {
		bound, capped := s.residence.Len() > 0, s.caps.Len() > 0
		slots = slots[:0]
		s.table.RangeStripe(i, func(slot loctable.Slot) bool {
			if owned == nil || owned(slot.Hash) {
				slots = append(slots, slot)
			}
			return true
		})
		for _, slot := range slots {
			if !f(s.resolve(slot, bound, capped)) {
				return
			}
		}
	}
}

// resolve completes a slot's record, looking up a binding and a capability
// set only where the leaf may hold one; neither lookup allocates.
func (s leafState) resolve(slot loctable.Slot, bound, capped bool) record {
	r := record{agent: slot.Agent, hash: slot.Hash, node: slot.Node, load: slot.Load}
	if bound {
		if handle, node, ok := s.residence.Binding(slot.Agent); ok {
			r.handle, r.node = handle, node
		}
	}
	if capped {
		r.caps = s.caps.CapsOf(slot.Agent)
	}
	return r
}

// locate is the reader of a served locate: the id still in the request
// frame, the request counted in the slot, and the node alone, so it neither
// allocates nor touches the capability index.
func (s leafState) locate(agent []byte, hash uint64) (platform.NodeID, bool) {
	node, ok := s.table.GetCountedBytes(agent, hash)
	if !ok {
		return "", false
	}
	if rn, bound := s.residence.ResolveBytes(agent); bound {
		node = rn
	}
	return node, true
}

// move lists the changes that re-point handle r at node: every member written
// at node, still bound to r and charged one request. Unknown handles report
// false.
func (s leafState) move(r ids.ResidenceID, node platform.NodeID) ([]change, bool) {
	members, known := s.residence.Members(r)
	changes := make([]change, len(members))
	for i, a := range members {
		changes[i] = change{agent: a, hash: a.Hash64(), node: node, handle: r, load: 1}
	}
	return changes, known
}

// appendRecords appends the leaf's record stream to dst: each agent's record
// as the reader yields it — resolved address, handle, capability set and
// load — as a length-prefixed snapshot.Record with no IAgent or version.
func (s leafState) appendRecords(dst []byte) []byte {
	s.each(nil, func(r record) bool {
		dst = snapshot.AppendStream(dst, r.put(r.load))
		return true
	})
	return dst
}

// put is r as a put record of a stream, carrying load.
func (r record) put(load uint32) snapshot.Record {
	return snapshot.Record{Op: snapshot.OpPut, Agent: string(r.agent), Node: string(r.node), Caps: r.caps, Handle: string(r.handle), Load: uint64(load)}
}

// applyRecords applies a record stream, the table sized for it first. A
// stream is what one leaf held, so a record no leaf yields — a delete, one
// without an address, a load past a slot's count, an agent twice, a handle at
// two addresses — is corrupt.
func (s leafState) applyRecords(stream []byte) error {
	s.table.Reserve(countRecords(stream))
	handles := make(map[ids.ResidenceID]platform.NodeID)
	for d := wire.NewDec(stream); d.Remaining() > 0; {
		data, err := d.Bytes(wire.MaxFrameLen)
		if err != nil {
			return err
		}
		rec, err := snapshot.DecodeRecord(data)
		if err != nil {
			return err
		}
		c := recordChange(rec)
		if _, dup := s.table.GetSlot(c.agent, c.hash); dup || c.delete || c.node == "" || c.load > math.MaxUint32 {
			return fmt.Errorf("%w: record of %q is not one a leaf holds", wire.ErrCorrupt, rec.Agent)
		}
		if c.handle != "" {
			if at, seen := handles[c.handle]; seen && at != c.node {
				return fmt.Errorf("%w: handle %q at %q and %q", wire.ErrCorrupt, c.handle, at, c.node)
			}
			handles[c.handle] = c.node
		}
		s.apply([]change{c})
	}
	return nil
}

// countRecords is the number of whole records stream opens with.
func countRecords(stream []byte) int {
	n := 0
	for d := wire.NewDec(stream); d.Remaining() > 0; n++ {
		if _, err := d.Bytes(wire.MaxFrameLen); err != nil {
			break
		}
	}
	return n
}

// recordChange is the change that makes a leaf hold what rec states: a put
// charges rec.Load and binds the agent to rec.Handle at rec.Node, or unbinds
// it.
func recordChange(rec snapshot.Record) change {
	agent := ids.AgentID(rec.Agent)
	return change{
		agent: agent, hash: agent.Hash64(), node: platform.NodeID(rec.Node), handle: ids.ResidenceID(rec.Handle),
		caps: rec.Caps, load: rec.Load, delete: rec.Op == snapshot.OpDelete,
	}
}

// walBatchRecords bounds the records of one WAL append.
const walBatchRecords = 4096

// logged is the record a change is logged as, in the WAL and the checkpoint
// suffix: what the leaf resolves after it, load aside. A handed-off binding to
// a handle the leaf holds is logged at the held address, which apply keeps
// (so the address reads the same before apply and after), so that replaying
// it cannot roll the group back.
func (s leafState) logged(c *change) snapshot.Record {
	rec := snapshot.Record{Op: snapshot.OpPut, Agent: string(c.agent), Node: string(c.node), Caps: c.caps, Handle: string(c.handle)}
	switch {
	case c.delete:
		rec.Op = snapshot.OpDelete
	case c.handoff && c.handle != "":
		if at, held := s.residence.Address(c.handle); held {
			rec.Node = string(at)
		}
	}
	return rec
}

// write makes changes on the live leaf: it logs them to the node's WAL,
// walBatchRecords to an append, applies them, and appends their records to
// the checkpoint suffix; a deleted agent's mail goes with it. A failed append
// fails the write before anything is applied — a change is acknowledged only
// once it is logged — unless bestEffort: the leaf's own bookkeeping after a
// handoff or a takeover applies regardless.
//
// Records join the suffix only while a delta could carry them (failover on,
// no full push owed). write applies before it takes mu, and a full push opens
// the suffix under mu before it reads the first stripe, so a change the push
// missed is in the suffix.
func (b *IAgentBehavior) write(ctx *platform.Context, version uint64, changes []change, bestEffort bool) error {
	if store := ctx.Durable(); store != nil && len(changes) > 0 {
		var one [1]snapshot.Record // a single change's, the usual write, on the stack
		recs := slices.Grow(one[:0], min(len(changes), walBatchRecords))
		for i := range changes {
			rec := b.leaf.logged(&changes[i])
			rec.IAgent, rec.HashVersion = string(ctx.Self()), version
			if recs = append(recs, rec); len(recs) < walBatchRecords && i < len(changes)-1 {
				continue
			}
			if err := store.AppendBatch(recs); err != nil && !bestEffort {
				return fmt.Errorf("IAgent %s: wal: %w", ctx.Self(), err)
			}
			recs = recs[:0]
		}
	}
	b.leaf.apply(changes)
	b.mu.Lock()
	open := b.Cfg.failoverEnabled() && !b.ckFull
	for i := range changes {
		if open {
			b.ckSuffix = snapshot.AppendStream(b.ckSuffix, b.leaf.logged(&changes[i]))
			b.ckLen++
		}
		if changes[i].delete {
			delete(b.Pending, changes[i].agent)
		}
	}
	if len(b.ckSuffix) > ckSuffixBytes {
		b.armFullCheckpoint()
	}
	b.mu.Unlock()
	b.setTableGauges()
	return nil
}

// setTableGauges publishes the table's entry count and footprint, both read
// from the table's counters.
func (b *IAgentBehavior) setTableGauges() {
	b.metTable.Set(int64(b.leaf.table.Len()))
	b.metTableBytes.Set(b.leaf.table.Bytes())
}
