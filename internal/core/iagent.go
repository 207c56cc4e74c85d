package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"agentloc/internal/bitstr"
	"agentloc/internal/capindex"
	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/stats"
	"agentloc/internal/transport"
)

// IAgentBehavior is an Information Agent: it maintains the precise current
// location of every mobile agent hashed to it (paper §2.2), tracks its own
// request rate and per-agent load, and asks the HAgent to split or merge it
// when the rate leaves [Tmin, Tmax]. The location table's slot is the only
// per-agent record it keeps: the accumulated request count of paper §4.1
// lives in the slot, beside the location the request asked for.
//
// Exported fields are the durable state that survives migration (IAgents
// are themselves mobile agents); runtime machinery is rebuilt lazily at the
// hosting node.
type IAgentBehavior struct {
	// Cfg is the mechanism configuration.
	Cfg Config
	// Table maps served agents to their current nodes and counts the
	// requests each has drawn. It is sharded so concurrent locates never
	// contend with each other (a locate and a register only collide when
	// they land on the same stripe), and it gob-encodes stripe by stripe,
	// counts included, so a relocated IAgent arrives with its per-agent loads.
	Table *loctable.Table
	// Residence records which served agents are bound to which residence
	// handle and where each handle currently is; locate resolves through it
	// so a group migration re-pointing the handle covers every bound member
	// (see residence.go).
	Residence *ResidenceTable
	// Caps is the secondary capability index (tag → served agents), kept
	// in lockstep with Table through register/update/deregister, handoffs,
	// sibling checkpoints and durable sections; Discover queries resolve
	// matches to nodes through Table+Residence, so the index itself never
	// stores locations.
	Caps *capindex.Index
	// StateSnapshot is the IAgent's copy of the hash state, kept current
	// by the HAgent for every rehash the IAgent is involved in.
	StateSnapshot StateDTO
	// Pending holds messages deposited for served agents until their next
	// check-in (the guaranteed-delivery extension; see discovery.go).
	Pending map[ids.AgentID][]Deposited
	// Checkpoints holds sibling IAgents' table copies, pushed via
	// KindCheckpoint and activated on takeover (crash-tolerance extension;
	// see failover.go).
	Checkpoints map[ids.AgentID]CheckpointState

	once    sync.Once
	initErr error

	// state is the current hash state. Reads are lock-free (State values
	// are immutable once published); installState, the one writer of a running
	// leaf, holds mu so a version check and the store it guards stay atomic.
	state atomic.Pointer[State]

	mu      sync.Mutex
	dead    bool
	settled time.Time // creation or last rehash involvement; gates merging

	est *stats.RateEstimator

	// Checkpoint bookkeeping (guarded by mu; ckSeq is pushCheckpoint's alone):
	// which table entries changed since the last push to the sibling leaf, and
	// whether the next push must be a full one (see armFullCheckpoint).
	// Changes are only noted while a delta could carry them — see noteDirty.
	ckDirty   map[ids.AgentID]bool
	ckRemoved map[ids.AgentID]bool
	ckSeq     uint64
	ckFull    bool
	ckBuddy   ids.AgentID

	// Metric handles, rebuilt with the runtime at each hosting node. All
	// are nil-safe no-ops when the node has no registry.
	metRegister, metUpdate, metDeregister    *metrics.Counter
	metLocate, metResidenceMove, metDiscover *metrics.Counter

	metStale *metrics.Counter
	metTable *metrics.Gauge
	metCkLag *metrics.Gauge
	// Entries shipped to the sibling leaf, by the kind of push they rode in.
	metCkSentFull, metCkSentDelta *metrics.Counter
}

var (
	_ platform.Behavior           = (*IAgentBehavior)(nil)
	_ platform.Runner             = (*IAgentBehavior)(nil)
	_ platform.ConcurrentBehavior = (*IAgentBehavior)(nil)
)

// ensureRuntime rebuilds the unexported machinery after creation or
// migration.
func (b *IAgentBehavior) ensureRuntime(ctx *platform.Context) error {
	b.once.Do(func() {
		if b.Table == nil {
			b.Table = loctable.New()
		}
		if b.Residence == nil {
			b.Residence = NewResidenceTable()
		}
		if b.Caps == nil {
			b.Caps = capindex.New()
		}
		st, err := FromDTO(b.StateSnapshot)
		if err != nil {
			b.initErr = fmt.Errorf("IAgent %s: %w", ctx.Self(), err)
			return
		}
		b.state.Store(st)
		b.mu.Lock()
		b.settled = ctx.Clock().Now()
		b.mu.Unlock()
		b.est = stats.NewRateEstimator(ctx.Clock(), b.Cfg.RateWindow)
		// First push after creation or migration is a full snapshot: the
		// buddy may hold nothing (or a stale base) for this sender.
		b.armFullCheckpoint()

		reg := ctx.Metrics()
		reg.Describe("agentloc_core_iagent_requests_total", "Location-protocol requests served, by IAgent and operation.")
		reg.Describe("agentloc_core_iagent_stale_total", "Requests answered not-responsible (stale client mapping), by IAgent.")
		reg.Describe("agentloc_core_iagent_table_entries", "Location-table entries held, by IAgent.")
		reg.Describe("agentloc_checkpoint_lag_entries", "Location-table updates not yet checkpointed to the sibling leaf, by IAgent.")
		reg.Describe("agentloc_checkpoint_entries_sent_total", "Location-table entries shipped to the sibling leaf, by IAgent and kind of push (full: the whole table again; delta: what changed).")
		self := string(ctx.Self())
		requests := func(op string) *metrics.Counter {
			return reg.Counter("agentloc_core_iagent_requests_total", "iagent", self, "op", op)
		}
		b.metRegister, b.metUpdate, b.metDeregister = requests("register"), requests("update"), requests("deregister")
		b.metLocate, b.metResidenceMove, b.metDiscover = requests("locate"), requests("residence-move"), requests("discover")
		b.metStale = reg.Counter("agentloc_core_iagent_stale_total", "iagent", self)
		b.metTable = reg.Gauge("agentloc_core_iagent_table_entries", "iagent", self)
		b.metTable.Set(int64(b.Table.Len()))
		b.metCkLag = reg.Gauge("agentloc_checkpoint_lag_entries", "iagent", self)
		b.metCkLag.Set(0)
		b.metCkSentFull = reg.Counter("agentloc_checkpoint_entries_sent_total", "iagent", self, "kind", "full")
		b.metCkSentDelta = reg.Counter("agentloc_checkpoint_entries_sent_total", "iagent", self, "kind", "delta")

		// Durable nodes get a full section at birth (and after migration):
		// the base every later checkpoint delta and WAL record applies to.
		b.persistSelf(ctx)
	})
	return b.initErr
}

// HandleConcurrent implements platform.ConcurrentBehavior: locate — the
// hot, read-only path — and the liveness probe touch nothing but
// concurrency-safe state (the immutable hash-state pointer, the sharded
// Table with its atomic load counters, and the wait-free rate estimator), so
// they are served on the delivering goroutine, concurrently with each other
// and with the mailbox. Every mutating kind declines and goes through the
// serial mailbox, preserving the write-side invariants unchanged.
func (b *IAgentBehavior) HandleConcurrent(ctx *platform.Context, kind string, payload []byte) (any, bool, error) {
	switch kind {
	case KindLocate:
		if err := b.ensureRuntime(ctx); err != nil {
			return nil, true, err
		}
		b.metLocate.Inc()
		// Every sender encodes a LocateReq in binary, so it is served off the
		// payload: the id stays a view into the frame and the table is probed
		// by bytes, and the key costs no allocation.
		agent, err := locateReqAgent(payload)
		if err != nil {
			return nil, true, err
		}
		return b.locateBytes(ctx, agent), true, nil
	case KindLocateBatch:
		if err := b.ensureRuntime(ctx); err != nil {
			return nil, true, err
		}
		var req LocateBatchReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		return b.locateBatch(ctx, req), true, nil
	case KindDiscover:
		// The capability index, Table and Residence are all individually
		// concurrency-safe, so discovery rides the read fast path beside
		// locates.
		if err := b.ensureRuntime(ctx); err != nil {
			return nil, true, err
		}
		b.metDiscover.Inc()
		var req DiscoverReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		return b.discover(req), true, nil
	case KindIAgentPing:
		if err := b.ensureRuntime(ctx); err != nil {
			return nil, true, err
		}
		return Ack{Status: StatusOK, HashVersion: b.state.Load().Version()}, true, nil
	default:
		return nil, false, nil
	}
}

// HandleRequest implements platform.Behavior. The platform delivers these
// requests strictly serially (only the read-only kinds above bypass the
// mailbox); the mutex guards the pieces the Run goroutine also reads
// (liveness, settle time, checkpoint bookkeeping, pending mail).
func (b *IAgentBehavior) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	if err := b.ensureRuntime(ctx); err != nil {
		return nil, err
	}
	if resp, handled, err := b.decodeDiscovery(ctx, kind, payload); handled {
		return resp, err
	}
	if resp, handled, err := b.decodeFailover(ctx, kind, payload); handled {
		return resp, err
	}
	switch kind {
	case KindRegister:
		// Registration reuses the update shape on the wire (clients send
		// UpdateReq with an empty Residence), so decode the superset; the
		// binding stays cleared either way.
		b.metRegister.Inc()
		var req UpdateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		req.Residence = ""
		return b.recordLocation(ctx, req)
	case KindUpdate:
		b.metUpdate.Inc()
		var req UpdateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return b.recordLocation(ctx, req)
	case KindUpdateBatch:
		var req UpdateBatchReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		b.metUpdate.Add(uint64(len(req.Updates)))
		acks, err := b.recordLocations(ctx, req.Updates)
		if err != nil {
			return nil, err
		}
		return UpdateBatchResp{Acks: acks}, nil
	case KindResidenceMove:
		b.metResidenceMove.Inc()
		var req ResidenceMoveReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return b.residenceMove(ctx, req)
	case KindDeregister:
		b.metDeregister.Inc()
		var req DeregisterReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return b.deregister(ctx, req.Agent)
	case KindAdoptState:
		var req AdoptStateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		sp := ctx.StartSpan("control", "iagent.adopt")
		ack, err := b.adoptState(ctx, req)
		sp.End(err)
		return ack, err
	case KindHandoff:
		var req HandoffReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		sp := ctx.StartSpan("control", "iagent.handoff")
		ack, err := b.handoff(ctx, req)
		sp.End(err)
		return ack, err
	case KindSnapshotDump:
		sec, err := b.durableSection(ctx.Self())
		if err != nil {
			return nil, fmt.Errorf("IAgent %s: snapshot dump: %w", ctx.Self(), err)
		}
		// The capability index travels as its own section: a full snapshot
		// rotation discards the WAL cap deltas it supersedes, so omitting it
		// here would lose every capability written before the rotation.
		return SnapshotDumpResp{
			Status:      StatusOK,
			HashVersion: b.state.Load().Version(),
			Section:     sec,
			Extra:       []snapshot.Section{b.capSection(ctx.Self())},
		}, nil
	default:
		return nil, fmt.Errorf("IAgent %s: unknown request kind %q", ctx.Self(), kind)
	}
}

// responsible reports whether this IAgent currently serves the agent with
// the given ids.Hash64. It is lock-free and safe on the concurrent fast path.
func (b *IAgentBehavior) responsible(ctx *platform.Context, hash uint64) (bool, uint64) {
	st := b.state.Load()
	owner, _, err := st.OwnerOfHash(hash)
	if err != nil {
		return false, st.Version()
	}
	return owner == ctx.Self(), st.Version()
}

// recordLocation serves one register or update request.
func (b *IAgentBehavior) recordLocation(ctx *platform.Context, u UpdateReq) (Ack, error) {
	acks, err := b.recordLocations(ctx, []UpdateReq{u})
	if err != nil {
		return Ack{}, err
	}
	return acks[0], nil
}

// recordLocations serves register and update requests, one or a batch (paper
// §2.3: "each time A moves, it informs its IAgent about its new location").
// Each entry is judged on its own: one this IAgent is not responsible for is
// answered so and skipped. A non-empty Residence binds the agent to that
// handle at Node; an empty one clears any binding — an individually-reported
// move means the agent left its group. A non-empty Capabilities replaces the
// agent's capability set; empty means no capability change, so plain moves
// never wipe an advertised set. On a durable node the responsible entries are
// WAL-logged — the whole batch with one write — before any is applied or
// acknowledged; a failed append fails the request.
func (b *IAgentBehavior) recordLocations(ctx *platform.Context, updates []UpdateReq) ([]Ack, error) {
	acks := make([]Ack, len(updates))
	hashes := make([]uint64, len(updates)) // each id is hashed once
	var recs []snapshot.Record
	if ctx.Durable() != nil {
		recs = make([]snapshot.Record, 0, len(updates))
	}
	for i, u := range updates {
		b.est.Record()
		hashes[i] = u.Agent.Hash64()
		ok, version := b.responsible(ctx, hashes[i])
		if !ok {
			b.metStale.Inc()
			acks[i] = Ack{Status: StatusNotResponsible, HashVersion: version}
			continue
		}
		acks[i] = Ack{Status: StatusOK, HashVersion: version}
		if recs != nil {
			recs = append(recs, walRecord(ctx, snapshot.OpPut, u.Agent, u.Node, version))
		}
	}
	if err := walAppendBatch(ctx, recs); err != nil {
		return nil, err
	}
	for i, u := range updates {
		if acks[i].Status != StatusOK {
			continue
		}
		b.Table.PutHashed(u.Agent, hashes[i], u.Node, 1) // an update counts as a request
		if u.Residence != "" {
			b.Residence.Bind(u.Agent, u.Residence, u.Node)
		} else {
			b.Residence.Unbind(u.Agent)
		}
		if len(u.Capabilities) > 0 {
			b.Caps.Set(u.Agent, u.Capabilities)
			// The location WAL record carries no capability payload; tee the
			// change as its own delta section so it survives a crash before
			// the next full dump.
			b.persistCapDelta(ctx, u.Agent, u.Capabilities)
		}
		b.mu.Lock()
		b.noteDirty(u.Agent)
		b.mu.Unlock()
	}
	b.metTable.Set(int64(b.Table.Len()))
	return acks, nil
}

// residenceMove serves KindResidenceMove: re-point a residence handle at
// its group's new node, covering every bound member this IAgent serves with
// one request. Residence ids are not hashed, so there is no responsibility
// check on the handle itself; the members' bindings only exist here while
// their entries do (adoptState unbinds what it hands off). An unknown
// handle answers StatusUnknownAgent and the sender falls back to per-member
// bound updates, which re-create the record wherever the members live now.
func (b *IAgentBehavior) residenceMove(ctx *platform.Context, req ResidenceMoveReq) (ResidenceMoveResp, error) {
	b.est.Record()
	version := b.state.Load().Version()
	members, known := b.Residence.Move(req.Residence, req.Node)
	if !known {
		return ResidenceMoveResp{Status: StatusUnknownAgent, HashVersion: version}, nil
	}
	// WAL records carry final addresses, so a one-message group move logs
	// one put per member — the durable mirror of what the checkpoint
	// re-push below does for the sibling copy. A failed append fails the
	// request; the sender's retry repeats the (idempotent) move.
	if ctx.Durable() != nil {
		recs := make([]snapshot.Record, len(members))
		for i, a := range members {
			recs[i] = walRecord(ctx, snapshot.OpPut, a, req.Node, version)
		}
		if err := walAppendBatch(ctx, recs); err != nil {
			return ResidenceMoveResp{}, err
		}
	}
	// Every member's resolved address changed: their checkpointed entries
	// must be re-pushed, and their load counters see the activity so split
	// decisions stay informed.
	for _, a := range members {
		b.Table.AddLoad(a, 1)
	}
	b.mu.Lock()
	for _, a := range members {
		b.noteDirty(a)
	}
	b.mu.Unlock()
	return ResidenceMoveResp{Status: StatusOK, HashVersion: version, Bound: len(members)}, nil
}

// deregister forgets a disposed agent. The delete is WAL-logged before it
// is applied, like every acknowledged mutation.
func (b *IAgentBehavior) deregister(ctx *platform.Context, agent ids.AgentID) (Ack, error) {
	b.est.Record()
	hash := agent.Hash64()
	ok, version := b.responsible(ctx, hash)
	if !ok {
		b.metStale.Inc()
		return Ack{Status: StatusNotResponsible, HashVersion: version}, nil
	}
	if err := walAppend(ctx, snapshot.OpDelete, agent, "", version); err != nil {
		return Ack{}, err
	}
	b.Table.DeleteHashed(agent, hash)
	b.Residence.Unbind(agent)
	if b.Caps.Remove(agent) {
		b.persistCapDelta(ctx, agent, nil)
	}
	b.mu.Lock()
	b.noteRemoved(agent)
	b.mu.Unlock()
	b.metTable.Set(int64(b.Table.Len()))
	return Ack{Status: StatusOK, HashVersion: version}, nil
}

// locate serves location queries (paper §2.3: the IAgent first checks
// whether it is still responsible for the agent). The id is hashed once, for
// the responsibility check and the table probe, and the probe counts the
// request in the slot it finds; an agent the table does not hold is counted
// nowhere. It takes no locks beyond the Table stripe's RLock, so concurrent
// locates proceed in parallel.
func (b *IAgentBehavior) locate(ctx *platform.Context, agent ids.AgentID) LocateResp {
	b.est.Record()
	hash := agent.Hash64()
	ok, version := b.responsible(ctx, hash)
	if !ok {
		b.metStale.Inc()
		return LocateResp{Status: StatusNotResponsible, HashVersion: version}
	}
	node, found := b.Table.GetCounted(agent, hash)
	if !found {
		return LocateResp{Status: StatusUnknownAgent, HashVersion: version}
	}
	// A bound agent's authoritative address is its handle's: the handle
	// moved with the group even when the member's direct entry is older.
	// Resolve takes only a read lock, so the concurrent fast path keeps its
	// parallelism — and the client receives (and caches) a final address.
	if rn, ok := b.Residence.Resolve(agent); ok {
		node = rn
	}
	return LocateResp{Status: StatusOK, Node: node, HashVersion: version}
}

// locateBytes is locate for an id still sitting in the request frame.
func (b *IAgentBehavior) locateBytes(ctx *platform.Context, agent []byte) LocateResp {
	b.est.Record()
	hash := ids.HashBytes(agent)
	ok, version := b.responsible(ctx, hash)
	if !ok {
		b.metStale.Inc()
		return LocateResp{Status: StatusNotResponsible, HashVersion: version}
	}
	node, found := b.Table.GetCountedBytes(agent, hash)
	if !found {
		return LocateResp{Status: StatusUnknownAgent, HashVersion: version}
	}
	if rn, ok := b.Residence.ResolveBytes(agent); ok {
		node = rn
	}
	return LocateResp{Status: StatusOK, Node: node, HashVersion: version}
}

// locateBatch answers several locates in one frame, each agent judged
// individually like UpdateBatchReq's entries. It touches only the
// concurrency-safe read state, so it rides the concurrent fast path.
func (b *IAgentBehavior) locateBatch(ctx *platform.Context, req LocateBatchReq) LocateBatchResp {
	resp := LocateBatchResp{Results: make([]LocateResp, len(req.Agents))}
	for i, a := range req.Agents {
		b.metLocate.Inc()
		resp.Results[i] = b.locate(ctx, a)
	}
	return resp
}

// discover answers a capability query against the secondary index, each
// match resolved to its current node through the location table and the
// residence overlay — the same resolution locate performs, so the caller
// receives final addresses. Matches are Near-preferred, then ordered by
// agent id for determinism, then truncated to the per-leaf limit. There is
// no per-agent responsibility check: the index only ever holds agents this
// IAgent serves (handoffs move capability sets with their entries), and an
// agent absent from the table — a phantom left by a lost removal — is
// simply skipped.
func (b *IAgentBehavior) discover(req DiscoverReq) DiscoverResp {
	b.est.Record()
	version := b.state.Load().Version()
	resp := DiscoverResp{Status: StatusOK, HashVersion: version}
	matched := b.Caps.Match(req.Caps)
	if len(matched) == 0 {
		return resp
	}
	resp.Matches = make([]DiscoverMatch, 0, len(matched))
	for _, agent := range matched {
		node, found := b.Table.Get(agent)
		if !found {
			continue
		}
		if rn, ok := b.Residence.Resolve(agent); ok {
			node = rn
		}
		resp.Matches = append(resp.Matches, DiscoverMatch{Agent: agent, Node: node})
	}
	sort.Slice(resp.Matches, func(i, j int) bool {
		mi, mj := resp.Matches[i], resp.Matches[j]
		if req.Near != "" && (mi.Node == req.Near) != (mj.Node == req.Near) {
			return mi.Node == req.Near
		}
		return mi.Agent < mj.Agent
	})
	if req.Limit > 0 && len(resp.Matches) > req.Limit {
		resp.Matches = resp.Matches[:req.Limit]
	}
	return resp
}

// adoptState installs a new hash state pushed by the HAgent after a rehash
// this IAgent is involved in, hands off every entry it no longer owns to
// the now-responsible IAgents, and marks itself dead if its leaf is gone.
// A push of the version already held (the HAgent retries when an ack was
// lost or an earlier adopt failed part-way) installs nothing but still
// finishes the work: it activates the checkpoint and hands off whatever a
// failed handoff left behind.
func (b *IAgentBehavior) adoptState(ctx *platform.Context, req AdoptStateReq) (Ack, error) {
	st, err := FromDTO(req.State)
	if err != nil {
		return Ack{}, fmt.Errorf("IAgent %s: adopt: %w", ctx.Self(), err)
	}
	b.mu.Lock()
	cur := b.state.Load()
	status := StatusOK
	if st.Version() <= cur.Version() {
		status, st = StatusIgnored, cur
	} else {
		// What this leaf serves changed: the buddy has dropped its copy, which
		// described another id space. (A new buddy is pushCheckpoint's to see.)
		if !sameLeaf(cur.Tree, st.Tree, string(ctx.Self())) {
			b.armFullCheckpoint()
		}
		b.installState(ctx.Self(), st, req.PromoteCheckpointOf)
		b.settled = ctx.Clock().Now()
	}
	stillPresent := st.Tree.Contains(string(ctx.Self()))
	b.mu.Unlock()

	if req.PromoteCheckpointOf != "" {
		b.activateCheckpoint(ctx, req.PromoteCheckpointOf)
	}

	// Group entries this IAgent no longer owns by their new owner, in one
	// pass over the table: the slot carries the hash the tree walks, so
	// nothing is hashed again, and the load the receiver's split decisions
	// need. Only what leaves is copied out.
	moved := make(map[ids.AgentID]*HandoffReq)
	b.Table.RangeSlots(func(s loctable.Slot) bool {
		owner, _, err := st.OwnerOfHash(s.Hash)
		if err != nil || owner == ctx.Self() {
			return true
		}
		h := moved[owner]
		if h == nil {
			h = &HandoffReq{
				Entries:    make(map[ids.AgentID]platform.NodeID),
				Load:       make(map[ids.AgentID]uint64),
				Pending:    make(map[ids.AgentID][]Deposited),
				Bindings:   make(map[ids.AgentID]ids.ResidenceID),
				Residences: make(map[ids.ResidenceID]platform.NodeID),
				Caps:       make(map[ids.AgentID][]string),
			}
			moved[owner] = h
		}
		h.Entries[s.Agent] = s.Node
		h.Load[s.Agent] = uint64(s.Load)
		return true
	})
	for _, h := range moved {
		// Entries are overlaid with residence-resolved addresses, so a
		// receiver that never learns a binding still starts from the group's
		// current node, not a stale per-member entry.
		b.Residence.OverlayResolved(h.Entries)
		for agent, node := range h.Entries {
			if r, bound := b.Residence.BindingOf(agent); bound {
				h.Bindings[agent] = r
				h.Residences[r] = node
			}
			if caps := b.Caps.CapsOf(agent); len(caps) > 0 {
				h.Caps[agent] = caps
			}
		}
		b.mu.Lock()
		for agent := range h.Entries {
			if msgs := b.Pending[agent]; len(msgs) > 0 {
				h.Pending[agent] = msgs
			}
		}
		b.mu.Unlock()
	}
	for owner, h := range moved {
		ownerNode, ok := st.Locations[owner]
		if !ok {
			return Ack{}, fmt.Errorf("IAgent %s: no location for new owner %s", ctx.Self(), owner)
		}
		if err := b.callWithRetry(ctx, ownerNode, owner, KindHandoff, h, nil); err != nil {
			return Ack{}, fmt.Errorf("IAgent %s: handoff to %s: %w", ctx.Self(), owner, err)
		}
		b.mu.Lock()
		for agent := range h.Entries {
			delete(b.Pending, agent)
		}
		b.mu.Unlock()
		// Best effort: the full section persisted below is the durable
		// authority for the post-handoff table, and a resurrected entry
		// would only draw not-responsible answers anyway.
		_ = walAppendEntries(ctx, snapshot.OpDelete, h.Entries, st.Version())
		for agent := range h.Entries {
			b.Table.Delete(agent)
			b.Residence.Unbind(agent)
			b.Caps.Remove(agent)
		}
		b.metTable.Set(int64(b.Table.Len()))
	}
	if status == StatusIgnored && len(moved) == 0 {
		return Ack{Status: status, HashVersion: st.Version()}, nil
	}
	b.persistSelf(ctx)

	if !stillPresent {
		b.mu.Lock()
		b.dead = true
		b.mu.Unlock()
		ctx.Emit("iagent.retire", fmt.Sprintf("leaf gone at v%d; handed off %d owners", st.Version(), len(moved)))
	} else if len(moved) > 0 {
		ctx.Emit("iagent.adopt", fmt.Sprintf("v%d; handed off to %d owners", st.Version(), len(moved)))
	}
	// A rehash resets the rate statistics so the fresh assignment is
	// measured from scratch.
	b.est.Reset()
	return Ack{Status: status, HashVersion: st.Version()}, nil
}

// handoff merges entries transferred from another IAgent during rehashing.
// Adopted entries are WAL-logged, every batch of them, before the handoff is
// acknowledged — once the sender deletes its copies, this log is their only
// durable home until the next full section. A failed append fails the request
// and the sender retries the (idempotent) handoff.
func (b *IAgentBehavior) handoff(ctx *platform.Context, req HandoffReq) (Ack, error) {
	if err := walAppendEntries(ctx, snapshot.OpPut, req.Entries, b.state.Load().Version()); err != nil {
		return Ack{}, err
	}
	if len(req.Bindings) > 0 {
		b.Residence.Adopt(req.Bindings, req.Residences)
	}
	if len(req.Caps) > 0 {
		b.Caps.Adopt(req.Caps)
		for agent, caps := range req.Caps {
			b.persistCapDelta(ctx, agent, caps)
		}
	}
	for agent, node := range req.Entries {
		b.Table.PutHashed(agent, agent.Hash64(), node, req.Load[agent])
	}
	b.mu.Lock()
	for agent := range req.Entries {
		b.noteDirty(agent)
	}
	if len(req.Pending) > 0 && b.Pending == nil {
		b.Pending = make(map[ids.AgentID][]Deposited)
	}
	for agent, msgs := range req.Pending {
		b.Pending[agent] = append(b.Pending[agent], msgs...)
	}
	b.mu.Unlock()
	b.metTable.Set(int64(b.Table.Len()))
	return Ack{Status: StatusOK, HashVersion: b.state.Load().Version()}, nil
}

// loadReport reads a split request's statistics off the table in one pass,
// at the granularity of paper §4.1: exact per-agent counts, or — with
// prefixBits > 0 — counts per id-prefix group, keyed as stats.GroupLoads
// keys them and taken from the leading bits of the slot's hash, so no id is
// hashed or rendered again. Agents nothing has been charged to are left out,
// as they would be from an account that only ever saw requests.
func loadReport(table *loctable.Table, prefixBits int) (perAgent map[ids.AgentID]uint64, perGroup map[string]uint64) {
	if prefixBits <= 0 {
		perAgent = make(map[ids.AgentID]uint64, table.Len())
		table.RangeSlots(func(s loctable.Slot) bool {
			if s.Load > 0 {
				perAgent[s.Agent] = uint64(s.Load)
			}
			return true
		})
		return perAgent, nil
	}
	prefixBits = min(prefixBits, ids.BinaryWidth)
	groups := make(map[uint64]uint64)
	table.RangeSlots(func(s loctable.Slot) bool {
		if s.Load > 0 {
			groups[s.Hash>>(ids.BinaryWidth-prefixBits)] += uint64(s.Load)
		}
		return true
	})
	perGroup = make(map[string]uint64, len(groups))
	for prefix, load := range groups {
		perGroup[bitstr.FromUint64(prefix, prefixBits).Raw()] = load
	}
	return nil, perGroup
}

// callWithRetry retries transient call failures a few times; handoffs must
// not be lost to a single dropped message.
func (b *IAgentBehavior) callWithRetry(ctx *platform.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		cctx, cancel := context.WithTimeout(context.Background(), b.Cfg.CallTimeout)
		err = ctx.Call(cctx, at, agent, kind, req, resp)
		cancel()
		if err == nil {
			return nil
		}
	}
	return err
}

// Run implements platform.Runner: the IAgent's autonomous loop compares its
// request rate against the thresholds every CheckInterval and asks the
// HAgent for a split or a merge (paper §4). It also disposes the agent once
// a merge has removed its leaf.
func (b *IAgentBehavior) Run(ctx *platform.Context) error {
	if err := b.ensureRuntime(ctx); err != nil {
		return err
	}
	lastPlacement := ctx.Clock().Now()
	lastBeat := time.Time{} // zero: beat on the first tick
	lastCk := ctx.Clock().Now()
	for {
		if !ctx.Sleep(b.Cfg.CheckInterval) {
			return nil // agent stopped
		}
		if b.Cfg.PlacementEnabled && ctx.Clock().Now().Sub(lastPlacement) >= b.Cfg.PlacementInterval {
			lastPlacement = ctx.Clock().Now()
			moved, err := b.maybeRelocate(ctx)
			if err != nil {
				continue // transient; try again next round
			}
			if moved {
				return nil // Run resumes at the destination node
			}
		}
		b.mu.Lock()
		dead := b.dead
		settled := b.settled
		b.mu.Unlock()
		version := b.state.Load().Version()

		if dead {
			ctx.Dispose()
			return nil
		}

		// Crash tolerance: heartbeat the HAgent and checkpoint the table to
		// the sibling leaf. Cadence granularity is CheckInterval — intervals
		// shorter than that degrade to once per tick.
		if b.Cfg.failoverEnabled() {
			now := ctx.Clock().Now()
			if now.Sub(lastBeat) >= b.Cfg.HeartbeatInterval {
				lastBeat = now
				b.sendHeartbeat(ctx)
			}
			if now.Sub(lastCk) >= b.Cfg.checkpointEvery() {
				lastCk = now
				b.pushCheckpoint(ctx)
			}
		}

		rate := b.est.Rate()
		switch {
		case rate > b.Cfg.TMax:
			req := RequestSplitReq{
				IAgent:      ctx.Self(),
				HashVersion: version,
				Rate:        rate,
			}
			req.PerAgent, req.PerGroup = loadReport(b.Table, b.Cfg.LoadStatsPrefixBits)
			// A failed or declined request is retried naturally at the
			// next tick; the rate condition persists while overloaded.
			b.requestRehash(ctx, KindRequestSplit, req)
		case rate < b.Cfg.TMin && ctx.Clock().Now().Sub(settled) >= b.Cfg.MergeGrace:
			req := RequestMergeReq{IAgent: ctx.Self(), HashVersion: version, Rate: rate}
			b.requestRehash(ctx, KindRequestMerge, req)
		}
	}
}

// requestRehash sends a split/merge request to the primary HAgent, falling
// back to the configured replicas. A replica that has not been promoted
// answers Standby — keep walking; only a primary's answer counts.
func (b *IAgentBehavior) requestRehash(ctx *platform.Context, kind string, req any) {
	for _, src := range b.Cfg.hagentSources() {
		var resp RehashResp
		cctx, cancel := context.WithTimeout(ctx.Lifetime(), b.Cfg.CallTimeout)
		err := ctx.Call(cctx, src.Node, src.Agent, kind, req, &resp)
		cancel()
		if err == nil && !resp.Standby {
			return
		}
	}
}
