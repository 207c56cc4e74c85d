package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"agentloc/internal/capindex"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/wire"
)

// This file is the core side of the durability subsystem (the §7 robustness
// extensions taken to full-cluster crash tolerance): every acknowledged
// location update is appended to the hosting node's write-ahead log before
// the ack, agents dump their durable state into named snapshot sections,
// and RecoverNode rebuilds a node's agents from disk after a cold start.
//
// The snapshot store (internal/snapshot) treats section payloads as opaque
// bytes; this file owns their meaning:
//
//   - SectionHAgent: the primary-copy hash state, the IAgent name counter
//     and the standby flag. Written at birth and after every state change.
//   - SectionIAgent: an IAgent's hash-state copy plus its full location
//     table with residence-resolved (final) addresses. Written at birth,
//     after a rehash adoption, and by the persister's periodic full dump.
//   - SectionCheckpoint: the tee of a sibling-leaf checkpoint push — the
//     same delta that crash tolerance ships to the buddy doubles as the
//     incremental on-disk snapshot. A full push is a run of them, the first
//     flagged full.
//
// Recovery layers them per IAgent: newest full section, then checkpoint
// deltas in order, then the WAL records — the WAL is a superset of every
// mutation since the section was dumped, and the last record per agent
// wins, so replay converges on the last acknowledged address.
//
// Restart fencing: a recovered primary HAgent bumps the hash version by
// one and (with failover enabled) re-pushes the bumped state to every
// IAgent via the pendingNotify retry queue, so the whole cluster agrees on
// a version no pre-crash client can hold. The tree itself is unchanged by
// the bump — recovered IAgents keep answering correctly even before the
// push lands.

// Section kinds inside full and delta snapshots.
const (
	SectionHAgent     byte = 1
	SectionIAgent     byte = 2
	SectionCheckpoint byte = 3
	// SectionCapability carries an IAgent's capability index (see
	// internal/capindex) as a framed "ACAP" payload with its own format
	// version: a full frame replaces the index, a delta frame re-states one
	// agent's set (empty = removal). Written beside every SectionIAgent
	// dump and teed per capability mutation, so recovery layers it exactly
	// like the location data it shadows.
	SectionCapability byte = 4
)

// KindSnapshotDump asks an agent for its durable snapshot section; the
// persister mails it to every locally hosted agent when assembling a full
// snapshot. Agents without durable state answer Status Ignored.
const KindSnapshotDump = "node.snapshot-dump"

// SnapshotDumpResp carries one agent's snapshot section. Extra carries
// auxiliary sections that must land in the same full snapshot (an IAgent's
// capability index rides here); old peers gob-decode the field away.
type SnapshotDumpResp struct {
	Status      Status
	HashVersion uint64
	Section     snapshot.Section
	Extra       []snapshot.Section
}

// maxDurableField bounds ids and node names inside section payloads,
// mirroring the snapshot store's own field bound.
const maxDurableField = 1 << 16

// ---------------------------------------------------------------------------
// Section payload codecs. All decode errors are wire-typed (ErrCorrupt /
// ErrTruncated / ErrUnsupportedVersion), never panics.

// appendState encodes a hash state: version, serialized tree, sorted
// (iagent, node) location pairs.
func appendState(dst []byte, st *State) ([]byte, error) {
	if st == nil || st.Tree == nil {
		return nil, fmt.Errorf("core: cannot encode nil hash state")
	}
	treeBytes, err := st.Tree.Serialize()
	if err != nil {
		return nil, err
	}
	dst = wire.AppendUvarint(dst, st.Ver)
	dst = wire.AppendBytes(dst, treeBytes)
	dst = wire.AppendUvarint(dst, uint64(len(st.Locations)))
	ias := make([]string, 0, len(st.Locations))
	for ia := range st.Locations {
		ias = append(ias, string(ia))
	}
	sort.Strings(ias)
	for _, ia := range ias {
		dst = wire.AppendString(dst, ia)
		dst = wire.AppendString(dst, string(st.Locations[ids.AgentID(ia)]))
	}
	return dst, nil
}

func decodeState(d *wire.Dec) (*State, error) {
	ver, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	treeBytes, err := d.Bytes(wire.MaxFrameLen)
	if err != nil {
		return nil, err
	}
	tree, err := hashtree.Deserialize(treeBytes)
	if err != nil {
		return nil, err
	}
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: impossible location count %d", wire.ErrCorrupt, n)
	}
	locs := make(map[ids.AgentID]platform.NodeID, n)
	for i := uint64(0); i < n; i++ {
		ia, err := d.String(maxDurableField)
		if err != nil {
			return nil, err
		}
		node, err := d.String(maxDurableField)
		if err != nil {
			return nil, err
		}
		locs[ids.AgentID(ia)] = platform.NodeID(node)
	}
	st := &State{Ver: ver, Tree: tree, Locations: locs}
	for _, ia := range tree.IAgents() {
		if _, ok := locs[ids.AgentID(ia)]; !ok {
			return nil, fmt.Errorf("%w: state has no location for IAgent %s", wire.ErrCorrupt, ia)
		}
	}
	return st, nil
}

// hagentSection encodes the HAgent's durable state.
func hagentSection(name ids.AgentID, st *State, nextSeq uint64, standby bool) (snapshot.Section, error) {
	payload, err := appendState(nil, st)
	if err != nil {
		return snapshot.Section{}, err
	}
	payload = wire.AppendUvarint(payload, nextSeq)
	var sb byte
	if standby {
		sb = 1
	}
	payload = append(payload, sb)
	return snapshot.Section{Kind: SectionHAgent, Name: string(name), Payload: payload}, nil
}

func decodeHAgentSection(sec snapshot.Section) (st *State, nextSeq uint64, standby bool, err error) {
	d := wire.NewDec(sec.Payload)
	if st, err = decodeState(d); err != nil {
		return nil, 0, false, err
	}
	if nextSeq, err = d.Uvarint(); err != nil {
		return nil, 0, false, err
	}
	sb, err := d.Byte()
	if err != nil {
		return nil, 0, false, err
	}
	if sb > 1 {
		return nil, 0, false, fmt.Errorf("%w: standby flag %d", wire.ErrCorrupt, sb)
	}
	return st, nextSeq, sb == 1, d.Done()
}

// iagentSection encodes an IAgent's durable state: its hash-state copy and
// its full location table (already residence-resolved — sections carry
// final addresses; bindings re-form at the group's next move, the same
// convention sibling checkpoints use).
func iagentSection(name ids.AgentID, st *State, table *loctable.Table) (snapshot.Section, error) {
	payload, err := appendState(nil, st)
	if err != nil {
		return snapshot.Section{}, err
	}
	tableBytes, err := table.Serialize()
	if err != nil {
		return snapshot.Section{}, err
	}
	payload = wire.AppendBytes(payload, tableBytes)
	return snapshot.Section{Kind: SectionIAgent, Name: string(name), Payload: payload}, nil
}

func decodeIAgentSection(sec snapshot.Section) (*State, *loctable.Table, error) {
	d := wire.NewDec(sec.Payload)
	st, err := decodeState(d)
	if err != nil {
		return nil, nil, err
	}
	tableBytes, err := d.Bytes(wire.MaxFrameLen)
	if err != nil {
		return nil, nil, err
	}
	table, err := loctable.Deserialize(tableBytes)
	if err != nil {
		return nil, nil, err
	}
	return st, table, d.Done()
}

// checkpointSection encodes a sibling-checkpoint push for the on-disk delta
// tee. Name is the checkpointing IAgent — the delta describes the sender's
// own table.
func checkpointSection(req CheckpointReq) snapshot.Section {
	payload := wire.AppendUvarint(nil, req.HashVersion)
	var full byte
	if req.Full {
		full = 1
	}
	payload = append(payload, full)
	payload = wire.AppendUvarint(payload, uint64(len(req.Entries)))
	for a, n := range req.Entries {
		payload = wire.AppendString(payload, string(a))
		payload = wire.AppendString(payload, string(n))
	}
	payload = wire.AppendUvarint(payload, uint64(len(req.Removed)))
	for _, a := range req.Removed {
		payload = wire.AppendString(payload, string(a))
	}
	return snapshot.Section{Kind: SectionCheckpoint, Name: string(req.From), Payload: payload}
}

func decodeCheckpointSection(sec snapshot.Section) (full bool, entries map[ids.AgentID]platform.NodeID, removed []ids.AgentID, err error) {
	d := wire.NewDec(sec.Payload)
	if _, err = d.Uvarint(); err != nil { // hash version, informational
		return false, nil, nil, err
	}
	fb, err := d.Byte()
	if err != nil {
		return false, nil, nil, err
	}
	if fb > 1 {
		return false, nil, nil, fmt.Errorf("%w: full flag %d", wire.ErrCorrupt, fb)
	}
	n, err := d.Uvarint()
	if err != nil {
		return false, nil, nil, err
	}
	if n > uint64(d.Remaining()) {
		return false, nil, nil, fmt.Errorf("%w: impossible entry count %d", wire.ErrCorrupt, n)
	}
	entries = make(map[ids.AgentID]platform.NodeID, n)
	for i := uint64(0); i < n; i++ {
		a, err := d.String(maxDurableField)
		if err != nil {
			return false, nil, nil, err
		}
		node, err := d.String(maxDurableField)
		if err != nil {
			return false, nil, nil, err
		}
		entries[ids.AgentID(a)] = platform.NodeID(node)
	}
	r, err := d.Uvarint()
	if err != nil {
		return false, nil, nil, err
	}
	if r > uint64(d.Remaining()) {
		return false, nil, nil, fmt.Errorf("%w: impossible removed count %d", wire.ErrCorrupt, r)
	}
	removed = make([]ids.AgentID, 0, r)
	for i := uint64(0); i < r; i++ {
		a, err := d.String(maxDurableField)
		if err != nil {
			return false, nil, nil, err
		}
		removed = append(removed, ids.AgentID(a))
	}
	return fb == 1, entries, removed, d.Done()
}

// ---------------------------------------------------------------------------
// Write paths: WAL appends and section persistence.

// walRecord builds the WAL record of one location update served by the
// calling IAgent.
func walRecord(ctx *platform.Context, op byte, agent ids.AgentID, node platform.NodeID, hashVersion uint64) snapshot.Record {
	return snapshot.Record{
		Op:          op,
		IAgent:      string(ctx.Self()),
		Agent:       string(agent),
		Node:        string(node),
		HashVersion: hashVersion,
	}
}

// walAppendBatch appends location updates to the hosting node's WAL with one
// write. A node without a store is a no-op; with one, a failed append must
// fail the request — updates are only acknowledged once they are logged.
func walAppendBatch(ctx *platform.Context, recs []snapshot.Record) error {
	store := ctx.Durable()
	if store == nil {
		return nil
	}
	if err := store.AppendBatch(recs); err != nil {
		return fmt.Errorf("IAgent %s: wal: %w", ctx.Self(), err)
	}
	return nil
}

// walAppend is walAppendBatch for a single update.
func walAppend(ctx *platform.Context, op byte, agent ids.AgentID, node platform.NodeID, hashVersion uint64) error {
	if ctx.Durable() == nil {
		return nil
	}
	return walAppendBatch(ctx, []snapshot.Record{walRecord(ctx, op, agent, node, hashVersion)})
}

// walBatchRecords bounds the records of one WAL write of a bulk operation.
const walBatchRecords = 4096

// walAppendEntries logs one record per entry (an OpDelete record carries no
// node), walBatchRecords to a write: a rehash moves a table's worth of entries
// and must not cost a write each. It stops at the first failed append.
func walAppendEntries(ctx *platform.Context, op byte, entries map[ids.AgentID]platform.NodeID, hashVersion uint64) error {
	if ctx.Durable() == nil {
		return nil
	}
	recs := make([]snapshot.Record, 0, min(len(entries), walBatchRecords))
	for agent, node := range entries {
		if op == snapshot.OpDelete {
			node = ""
		}
		recs = append(recs, walRecord(ctx, op, agent, node, hashVersion))
		if len(recs) == walBatchRecords {
			if err := walAppendBatch(ctx, recs); err != nil {
				return err
			}
			recs = recs[:0]
		}
	}
	return walAppendBatch(ctx, recs)
}

// durableSection assembles this IAgent's full snapshot section: the table
// with every residence-bound entry at its handle's address.
func (b *IAgentBehavior) durableSection(self ids.AgentID) (snapshot.Section, error) {
	table := loctable.New()
	b.Table.RangeSlots(func(s loctable.Slot) bool {
		if node, bound := b.Residence.Resolve(s.Agent); bound {
			s.Node = node
		}
		table.PutHashed(s.Agent, s.Hash, s.Node, 0)
		return true
	})
	return iagentSection(self, b.state.Load(), table)
}

// capSection assembles this IAgent's full capability section: the whole
// index as one framed "ACAP" full frame. Written even when the index is
// empty — an empty full frame is what clears stale capability state on
// disk after a handoff emptied the index.
func (b *IAgentBehavior) capSection(self ids.AgentID) snapshot.Section {
	return snapshot.Section{Kind: SectionCapability, Name: string(self), Payload: b.Caps.Serialize()}
}

// persistCapDelta tees one agent's capability change (empty caps = removal)
// as a delta section, best effort: the location WAL record carries no
// capability payload, so this is what closes the durability gap between
// full sections for capability mutations.
func (b *IAgentBehavior) persistCapDelta(ctx *platform.Context, agent ids.AgentID, caps []string) {
	store := ctx.Durable()
	if store == nil {
		return
	}
	_ = store.AppendDelta(snapshot.Section{
		Kind:    SectionCapability,
		Name:    string(ctx.Self()),
		Payload: capindex.EncodeDelta(agent, caps),
	})
}

// persistSelf writes this IAgent's full section as an incremental snapshot,
// best effort: a failed write costs compaction, not correctness — the WAL
// still holds every acknowledged update. The capability index follows as
// its own section so both layers advance together.
func (b *IAgentBehavior) persistSelf(ctx *platform.Context) {
	store := ctx.Durable()
	if store == nil {
		return
	}
	sec, err := b.durableSection(ctx.Self())
	if err != nil {
		return
	}
	_ = store.AppendDelta(sec)
	_ = store.AppendDelta(b.capSection(ctx.Self()))
}

// persistState writes the HAgent's section as an incremental snapshot, best
// effort, called after every state change (split, merge, relocation,
// takeover, promotion, replication).
func (b *HAgentBehavior) persistState(ctx *platform.Context) {
	store := ctx.Durable()
	if store == nil {
		return
	}
	sec, err := hagentSection(ctx.Self(), b.state, b.NextIAgentSeq, b.Standby)
	if err != nil {
		return
	}
	_ = store.AppendDelta(sec)
}

// ---------------------------------------------------------------------------
// Recovery.

// RecoveryReport summarizes what RecoverNode rebuilt from disk.
type RecoveryReport struct {
	// Generation of the full snapshot recovery started from.
	Generation uint64
	// HAgents and IAgents relaunched on the node.
	HAgents []ids.AgentID
	IAgents []ids.AgentID
	// Entries restored across all IAgent location tables.
	Entries int
	// Replayed WAL records (also exported as
	// agentloc_recovery_replayed_entries_total by the store).
	Replayed int
	// Skipped counts WAL records and checkpoint deltas that referenced an
	// IAgent with no recovered base section (nothing to apply them to).
	Skipped int
}

type iagentRecovery struct {
	state   *State
	entries map[ids.AgentID]platform.NodeID
	caps    *capindex.Index
}

type hagentRecovery struct {
	state   *State
	nextSeq uint64
	standby bool
}

// RecoverNode rebuilds a node's location agents from its snapshot store
// after a cold start: the newest valid full snapshot, that generation's
// deltas, and the WAL tail, layered in that order. Recovered IAgents are
// relaunched with their last state copy and table; a recovered primary
// HAgent is relaunched with the hash version bumped by one and
// NotifyOnRecover set, so (with failover enabled) its sweep re-pushes the
// fenced state to every IAgent. The node's LHAgent is relaunched fresh —
// its caches refresh on demand. Returns an empty report when the node has
// no durable store or the store holds no state.
func RecoverNode(node *platform.Node, cfg Config) (*RecoveryReport, error) {
	report := &RecoveryReport{}
	store := node.Durable()
	if store == nil {
		return report, nil
	}
	rec, err := store.Recover()
	if err != nil {
		return nil, fmt.Errorf("core: recover node %s: %w", node.ID(), err)
	}
	report.Generation = rec.Generation
	report.Replayed = len(rec.Records)

	hagents := map[string]hagentRecovery{}
	iagents := map[string]*iagentRecovery{}

	apply := func(sec snapshot.Section) {
		switch sec.Kind {
		case SectionHAgent:
			st, nextSeq, standby, err := decodeHAgentSection(sec)
			if err != nil {
				report.Skipped++
				return
			}
			hagents[sec.Name] = hagentRecovery{state: st, nextSeq: nextSeq, standby: standby}
		case SectionIAgent:
			st, table, err := decodeIAgentSection(sec)
			if err != nil {
				report.Skipped++
				return
			}
			// A full dump replaces any earlier base for this IAgent. The
			// capability index carries over: its own full section normally
			// follows in append order and replaces it; if that write was
			// lost, the older capability state beats none at all.
			ir := &iagentRecovery{state: st, entries: table.Snapshot()}
			if prev := iagents[sec.Name]; prev != nil {
				ir.caps = prev.caps
			}
			iagents[sec.Name] = ir
		case SectionCapability:
			ir := iagents[sec.Name]
			if ir == nil {
				report.Skipped++
				return
			}
			if ir.caps == nil {
				ir.caps = capindex.New()
			}
			if err := capindex.Apply(sec.Payload, ir.caps); err != nil {
				report.Skipped++
			}
		case SectionCheckpoint:
			ir := iagents[sec.Name]
			if ir == nil {
				report.Skipped++
				return
			}
			// The full flag is not acted on: a full push is written a chunk at
			// a time, and emptying the base at its first chunk would lose, to a
			// crash mid-stream, every entry the later chunks had yet to
			// restate. Nothing is lost by layering instead — what a full push
			// would purge was deregistered (a WAL record) or handed off (a
			// fresh full section follows the handoff).
			_, entries, removed, err := decodeCheckpointSection(sec)
			if err != nil {
				report.Skipped++
				return
			}
			for a, n := range entries {
				ir.entries[a] = n
			}
			for _, a := range removed {
				delete(ir.entries, a)
			}
		default:
			report.Skipped++
		}
	}
	for _, sec := range rec.Sections {
		apply(sec)
	}
	for _, sec := range rec.Deltas {
		apply(sec)
	}

	// WAL records apply last: they postdate every section they follow, and
	// the last record per agent is the last acknowledged address.
	for _, r := range rec.Records {
		ir := iagents[r.IAgent]
		if ir == nil {
			report.Skipped++
			continue
		}
		switch r.Op {
		case snapshot.OpPut:
			ir.entries[ids.AgentID(r.Agent)] = platform.NodeID(r.Node)
		case snapshot.OpDelete:
			delete(ir.entries, ids.AgentID(r.Agent))
		}
	}

	// Relaunch, deterministically ordered.
	for _, name := range sortedKeys(hagents) {
		hr := hagents[name]
		st := hr.state
		notify := false
		if !hr.standby {
			// The restart fence: no pre-crash client holds this version.
			st = &State{Ver: st.Ver + 1, Tree: st.Tree, Locations: st.Locations}
			notify = true
		}
		behavior := &HAgentBehavior{
			Cfg:             cfg,
			InitialState:    st.DTO(),
			NextIAgentSeq:   hr.nextSeq,
			Standby:         hr.standby,
			NotifyOnRecover: notify,
		}
		if err := node.Launch(ids.AgentID(name), behavior); err != nil {
			return nil, fmt.Errorf("core: relaunch HAgent %s: %w", name, err)
		}
		report.HAgents = append(report.HAgents, ids.AgentID(name))
	}
	for _, name := range sortedKeys(iagents) {
		ir := iagents[name]
		table := loctable.New()
		for a, n := range ir.entries {
			table.Put(a, n)
		}
		report.Entries += len(ir.entries)
		behavior := &IAgentBehavior{Cfg: cfg, Table: table, Caps: ir.caps, StateSnapshot: ir.state.DTO()}
		if err := node.Launch(ids.AgentID(name), behavior, platform.WithServiceTime(cfg.IAgentServiceTime)); err != nil {
			return nil, fmt.Errorf("core: relaunch IAgent %s: %w", name, err)
		}
		report.IAgents = append(report.IAgents, ids.AgentID(name))
	}
	if len(report.HAgents) > 0 || len(report.IAgents) > 0 {
		// The node hosted location infrastructure; it needs its LHAgent
		// back too. LHAgents hold no durable state — caches refill.
		_ = node.Launch(LHAgentID(node.ID()), &LHAgentBehavior{Cfg: cfg})
	}
	return report, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Persister: the periodic full-snapshot loop.

// Persister periodically collects snapshot sections from every agent on its
// node (via KindSnapshotDump) and writes them as a full snapshot, rotating
// the WAL; between fulls it fsyncs the WAL to bound the loss window of
// asynchronous appends. One Persister runs per durable node.
type Persister struct {
	node     *platform.Node
	cfg      Config
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// StartPersister launches the persister loop. Interval must be positive;
// the node must have a durable store.
func StartPersister(node *platform.Node, cfg Config, interval time.Duration) (*Persister, error) {
	if node.Durable() == nil {
		return nil, fmt.Errorf("core: persister needs a durable node")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("core: persister interval must be positive, got %v", interval)
	}
	node.Metrics().Describe("agentloc_snapshot_age_seconds", "Seconds since the node's last successful full snapshot.")
	p := &Persister{
		node:     node,
		cfg:      cfg,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.loop()
	return p, nil
}

// Stop writes one final full snapshot and stops the loop. Safe to call
// once; it blocks until the loop exits.
func (p *Persister) Stop() {
	close(p.stop)
	<-p.done
}

func (p *Persister) loop() {
	defer close(p.done)
	age := p.node.Metrics().Gauge("agentloc_snapshot_age_seconds")
	last := p.node.Clock().Now()
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			p.WriteFullSnapshot()
			return
		case <-ticker.C:
			_ = p.node.Durable().Sync()
			if n, err := p.WriteFullSnapshot(); err == nil && n > 0 {
				last = p.node.Clock().Now()
			}
			age.Set(int64(p.node.Clock().Now().Sub(last) / time.Second))
		}
	}
}

// WriteFullSnapshot collects every local agent's section and writes a full
// snapshot, returning the section count. Agents that answer errors or hold
// no durable state (LHAgents, application agents) are skipped; with zero
// sections nothing is written — rotating an empty snapshot would only
// shorten the WAL replay horizon.
func (p *Persister) WriteFullSnapshot() (int, error) {
	timeout := p.cfg.CallTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	var sections []snapshot.Section
	for _, id := range p.node.Agents() {
		var resp SnapshotDumpResp
		cctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := p.node.CallAgent(cctx, p.node.ID(), id, KindSnapshotDump, nil, &resp)
		cancel()
		if err != nil || resp.Status != StatusOK {
			continue
		}
		sections = append(sections, resp.Section)
		sections = append(sections, resp.Extra...)
	}
	if len(sections) == 0 {
		return 0, nil
	}
	if err := p.node.Durable().WriteFull(sections); err != nil {
		return 0, err
	}
	return len(sections), nil
}
