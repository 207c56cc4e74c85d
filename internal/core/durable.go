package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"agentloc/internal/capindex"
	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/wire"
)

// This file is the core side of the durability subsystem (the §7 robustness
// extensions taken to full-cluster crash tolerance): every acknowledged
// location update, with the capability change it carries, is appended to the
// hosting node's write-ahead log before the ack, agents dump their durable
// state into named snapshot sections, and RecoverNode rebuilds a node's
// agents from disk after a cold start. The WAL is a leaf's one mutation log.
//
// The snapshot store (internal/snapshot) treats section payloads as opaque
// bytes; this file owns their meaning:
//
//   - SectionHAgent: the primary-copy hash state (a StateDTO's bytes,
//     state.go), the IAgent name counter and the standby flag. Written at
//     birth and after every state change.
//   - SectionIAgent: an IAgent's hash-state copy, the same bytes, then its
//     leaf's record stream (leafState.appendRecords): every agent's resolved
//     address, handle, capability set and load. Written at birth, after a
//     rehash adoption, and by the persister's periodic full dump.
//
// A section and a WAL record are one record codec (snapshot.Record): a
// section is a leaf's records, a WAL record one change's. Recovery layers them
// per IAgent: the newest section is the base, then the WAL records apply —
// the WAL is a superset of every mutation since the section was dumped, each
// record states what the leaf resolves after its change, and the last record
// per agent wins, so replay converges on the last acknowledged address,
// binding and capability set. Loads are those of the section: the WAL does
// not log them.
//
// Restart fencing: a recovered primary HAgent bumps the hash version by
// one and (with failover enabled) re-pushes the bumped state to every
// IAgent via the pendingNotify retry queue, so the whole cluster agrees on
// a version no pre-crash client can hold. The tree itself is unchanged by
// the bump — recovered IAgents keep answering correctly even before the
// push lands.

// Section kinds inside full and delta snapshots. Kinds 3 and 4 are retired:
// older stores hold checkpoint and capability sections under them, which
// recovery skips, so they must not be reused.
const (
	SectionHAgent byte = 1
	// SectionIAgentTable is the IAgent section older builds wrote: the hash
	// state, a location-table dump with every load 0 and no bindings, then
	// (from the build that added it) the capability index. Recovery still
	// reads it; nothing writes it.
	SectionIAgentTable byte = 2
	SectionIAgent      byte = 5
)

// ---------------------------------------------------------------------------
// Section payload codecs. All decode errors are wire-typed (ErrCorrupt /
// ErrTruncated / ErrUnsupportedVersion), never panics.

// hagentSection encodes the HAgent's durable state.
func hagentSection(name ids.AgentID, st *State, nextSeq uint64, standby bool) snapshot.Section {
	payload := wire.AppendUvarint(appendState(nil, st), nextSeq)
	var sb byte
	if standby {
		sb = 1
	}
	return snapshot.Section{Kind: SectionHAgent, Name: string(name), Payload: append(payload, sb)}
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

// iagentSection encodes an IAgent's durable state: its hash-state copy, then
// its leaf's record stream.
func iagentSection(name ids.AgentID, st *State, leaf leafState) snapshot.Section {
	return snapshot.Section{Kind: SectionIAgent, Name: string(name), Payload: leaf.appendRecords(appendState(nil, st))}
}

// decodeIAgentSection decodes an IAgent section of either kind into a fresh
// leaf. Of a SectionIAgentTable one, the leaf holds the dumped table, no
// bindings, and the capability index when the section has one.
func decodeIAgentSection(sec snapshot.Section) (*State, leafState, error) {
	d := wire.NewDec(sec.Payload)
	st, err := decodeState(d)
	if err != nil {
		return nil, leafState{}, err
	}
	if sec.Kind == SectionIAgent {
		leaf := newLeafState()
		return st, leaf, leaf.applyRecords(d)
	}
	tableBytes, err := d.Bytes(wire.MaxFrameLen)
	if err != nil {
		return nil, leafState{}, err
	}
	leaf := leafState{residence: NewResidenceTable(), caps: capindex.New()}
	if leaf.table, err = loctable.Deserialize(tableBytes); err != nil {
		return nil, leafState{}, err
	}
	if d.Remaining() == 0 {
		return st, leaf, nil
	}
	capBytes, err := d.Bytes(wire.MaxFrameLen)
	if err != nil {
		return nil, leafState{}, err
	}
	if leaf.caps, err = capindex.Deserialize(capBytes); err != nil {
		return nil, leafState{}, err
	}
	return st, leaf, d.Done()
}

// ---------------------------------------------------------------------------
// Section persistence. (WAL appends are IAgentBehavior.write's.)

// durableAgent is an agent with a section: an HAgent or an IAgent.
type durableAgent interface {
	// snapshotSection builds the agent's runtime if it is not built yet and
	// returns its section. It runs in the agent's mailbox.
	snapshotSection(ctx *platform.Context) (snapshot.Section, error)
}

func (b *HAgentBehavior) snapshotSection(ctx *platform.Context) (snapshot.Section, error) {
	if err := b.ensureRuntime(); err != nil {
		return snapshot.Section{}, err
	}
	return b.section(ctx.Self()), nil
}

func (b *IAgentBehavior) snapshotSection(ctx *platform.Context) (snapshot.Section, error) {
	if err := b.ensureRuntime(ctx); err != nil {
		return snapshot.Section{}, err
	}
	return b.section(ctx.Self()), nil
}

func (b *HAgentBehavior) section(self ids.AgentID) snapshot.Section {
	return hagentSection(self, b.state, b.NextIAgentSeq, b.Standby)
}

func (b *IAgentBehavior) section(self ids.AgentID) snapshot.Section {
	return iagentSection(self, b.state.Load(), b.leaf)
}

// sectioner builds an agent's section once its runtime is built.
type sectioner interface {
	section(self ids.AgentID) snapshot.Section
}

// persist writes the agent's section as an incremental snapshot, best effort:
// a failed write costs compaction, not correctness — the WAL still holds every
// acknowledged update. An IAgent persists at birth and after a rehash
// adoption, the HAgent after every state change.
func persist(ctx *platform.Context, a sectioner) {
	if store := ctx.Durable(); store != nil {
		_ = store.AppendDelta(a.section(ctx.Self()))
	}
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
	// Skipped counts WAL records that referenced an IAgent with no recovered
	// base section (nothing to apply them to), sections that failed to
	// decode, sections of a kind this version does not read — among them the
	// checkpoint (3) and capability (4) sections older stores wrote — and
	// the last section of a leaf a merge retired, which drops its base.
	Skipped int
}

// replay rebuilds, from what a store recovered, the behaviour of every agent
// it holds a section for. Sections, the full snapshot's then the deltas', set
// each agent's base: a later one replaces an earlier one whole, and an IAgent
// section whose state no longer holds its leaf — the one a leaf writes as a
// merge retires it — drops the base. A primary HAgent comes back fenced — its
// version bumped by one, which no pre-crash client holds, and
// NotifyOnRecover set. WAL records apply last, through the leaf's apply: they
// postdate every section they follow, and the last record per agent is the
// last acknowledged address, binding and set.
func replay(rec *snapshot.Recovered, cfg Config, report *RecoveryReport) (hagents map[string]*HAgentBehavior, iagents map[string]*IAgentBehavior) {
	hagents, iagents = map[string]*HAgentBehavior{}, map[string]*IAgentBehavior{}
	for _, sec := range append(rec.Sections, rec.Deltas...) {
		switch sec.Kind {
		case SectionHAgent:
			st, nextSeq, standby, err := decodeHAgentSection(sec)
			if err != nil {
				report.Skipped++
				continue
			}
			if !standby {
				st = &State{Ver: st.Ver + 1, Tree: st.Tree, Locations: st.Locations}
			}
			hagents[sec.Name] = &HAgentBehavior{Cfg: cfg, InitialState: st.DTO(), NextIAgentSeq: nextSeq, Standby: standby, NotifyOnRecover: !standby}
		case SectionIAgent, SectionIAgentTable:
			st, leaf, err := decodeIAgentSection(sec)
			if err != nil {
				report.Skipped++
				continue
			}
			if !st.Tree.Contains(sec.Name) {
				delete(iagents, sec.Name)
				report.Skipped++
				continue
			}
			iagents[sec.Name] = &IAgentBehavior{Cfg: cfg, leaf: leaf, StateSnapshot: st.DTO()}
		default:
			report.Skipped++
		}
	}
	for _, r := range rec.Records {
		ia := iagents[r.IAgent]
		if ia == nil {
			report.Skipped++
			continue
		}
		ia.leaf.apply([]change{recordChange(r)})
	}
	return hagents, iagents
}

// RecoverNode rebuilds a node's location agents from its snapshot store
// after a cold start: each agent's newest section, from the newest valid full
// snapshot or that generation's deltas, then the WAL tail. Recovered IAgents are
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
	hagents, iagents := replay(rec, cfg, report)

	// Relaunch, deterministically ordered.
	for _, name := range slices.Sorted(maps.Keys(hagents)) {
		if err := node.Launch(ids.AgentID(name), hagents[name]); err != nil {
			return nil, fmt.Errorf("core: relaunch HAgent %s: %w", name, err)
		}
		report.HAgents = append(report.HAgents, ids.AgentID(name))
	}
	for _, name := range slices.Sorted(maps.Keys(iagents)) {
		report.Entries += iagents[name].leaf.table.Len()
		if err := node.Launch(ids.AgentID(name), iagents[name], platform.WithServiceTime(cfg.IAgentServiceTime)); err != nil {
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

// ---------------------------------------------------------------------------
// Persister: the periodic full-snapshot loop.

// Persister periodically takes the section of every agent on its node with
// durable state, each in the agent's mailbox, and writes them as a full
// snapshot, rotating the WAL; between fulls it fsyncs the WAL to bound the
// loss window of asynchronous appends. One Persister runs per durable node.
type Persister struct {
	node     *platform.Node
	cfg      Config
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	final    error // the final full snapshot's, for Stop
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

// Stop writes one final full snapshot, stops the loop and returns the
// snapshot's error. Safe to call once; it blocks until the loop exits.
func (p *Persister) Stop() error {
	close(p.stop)
	<-p.done
	return p.final
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
			_, p.final = p.WriteFullSnapshot()
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

// WriteFullSnapshot takes the section of every local HAgent and IAgent, each
// in its mailbox within the call timeout, and writes them as a full snapshot,
// returning the section count. Agents with no durable state (LHAgents,
// application agents) are not visited. An agent gone since the node listed it
// is skipped; any other failure — a mailbox still busy at the deadline — fails
// the snapshot with nothing written, because a full snapshot without a live
// agent's section would rotate away the WAL that agent recovers from. With
// zero sections nothing is written — rotating an empty snapshot would only
// shorten the WAL replay horizon.
func (p *Persister) WriteFullSnapshot() (int, error) {
	var sections []snapshot.Section
	for _, id := range p.node.AgentsWith(func(b platform.Behavior) bool { _, ok := b.(durableAgent); return ok }) {
		var err error
		ctx, cancel := context.WithTimeout(context.Background(), p.cfg.callTimeout())
		if derr := p.node.Do(ctx, id, func(b platform.Behavior, actx *platform.Context) {
			var sec snapshot.Section
			if sec, err = b.(durableAgent).snapshotSection(actx); err == nil {
				sections = append(sections, sec)
			}
		}); derr != nil {
			err = derr
		}
		cancel()
		if err != nil && !platform.IsAgentNotFound(err) {
			return 0, fmt.Errorf("core: full snapshot of %s: section of %s: %w", p.node.ID(), id, err)
		}
	}
	if len(sections) == 0 {
		return 0, nil
	}
	if err := p.node.Durable().WriteFull(sections); err != nil {
		return 0, err
	}
	return len(sections), nil
}
