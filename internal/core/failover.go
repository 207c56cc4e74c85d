package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// This file implements the IAgent tier of the §7 fault-tolerance extension:
// lease-based failure detection, sibling-leaf checkpointing, and automatic
// takeover. The HAgent tier (replica promotion) rides the same detector.
//
// The moving parts, all gated on Config.HeartbeatInterval > 0:
//
//   - Every IAgent heartbeats the HAgent each HeartbeatInterval
//     (KindHeartbeat), walking the configured fallbacks so beats land at a
//     promoted replica after an HAgent failover.
//   - The HAgent runs a sweep loop (a Runner whose every sweep runs in its
//     serial mailbox through Context.Do, keeping all detector state there).
//     An IAgent whose lease — HeartbeatInterval ×
//     SuspectAfterMisses — expires is marked suspect and probed directly
//     (KindIAgentPing); if the probe also fails, the HAgent takes over.
//   - Takeover is a forced merge: the sibling subtree absorbs the failed
//     leaf, the hash version bumps, and the §4.3 client refresh machinery
//     re-routes traffic. The absorbers are told which checkpoint to
//     activate (AdoptStateReq.PromoteCheckpointOf).
//   - Each IAgent pushes the records its writes were logged as to its first
//     sibling leaf (KindCheckpoint) — the leaf guaranteed to absorb it on a
//     simple merge — best effort, like HAgent replication; the sibling holds
//     them as a log and folds it into a leaf on takeover. What the leaf
//     logged after the sibling's last acknowledged record dies with it: an
//     entry the held copy missed answers a stale OK (the older location the
//     copy holds) or a miss (if it holds none) until the agent's next move
//     notification rewrites it.
//     Both leaves must be on the same hash version for a push to land; a
//     leaf no rehash push reaches learns the published version from its
//     heartbeat's ack and pulls it (refreshState).
//   - Standby HAgents watch the primary's lease (renewed by KindHAgentBeat
//     and by every state replication) and auto-promote under a quorum
//     guard: the first-configured replica promotes itself only when a
//     majority of replicas (its own vote included) also see the lease
//     expired (KindLeaseQuery). A single replica self-votes — documented
//     as the degenerate quorum. A returning primary is NOT fenced; it must
//     rejoin as a standby.

// Failover message kinds.
const (
	// KindHeartbeat renews an IAgent's lease at the HAgent.
	KindHeartbeat = "hash.heartbeat"
	// KindIAgentPing probes a suspect IAgent before declaring it failed.
	KindIAgentPing = "loc.ping"
	// KindCheckpoint pushes a location-table delta to a sibling leaf.
	KindCheckpoint = "loc.checkpoint"
	// KindHAgentBeat renews the primary HAgent's lease at a replica.
	KindHAgentBeat = "hash.hagent-beat"
	// KindLeaseQuery asks a replica whether it, too, sees the primary's
	// lease expired (the quorum guard of automatic promotion).
	KindLeaseQuery = "hash.lease-query"
)

// HeartbeatReq renews the sending IAgent's lease.
type HeartbeatReq struct {
	IAgent      ids.AgentID
	HashVersion uint64
}

// CheckpointReq is one push from an IAgent to its sibling leaf: a delta, the
// suffix of the records its writes were logged as, or a chunk of a full push
// of its table.
type CheckpointReq struct {
	From        ids.AgentID
	HashVersion uint64
	// Seq numbers a delta's first record; every record logged takes the next
	// number. A full push's chunks carry the Seq of the delta after it.
	Seq uint64
	// Full marks a chunk of a full push, Offset the records of the chunks
	// before it: at Offset 0 it replaces the held copy.
	Full   bool
	Offset uint64
	// Live is the sender's entry count, the size of its copy compacted.
	Live uint64
	// Records is a stream of records with no IAgent, version or load.
	Records []byte
	// Entries has no meaning of its own: the encoder writes each as a put
	// record after Records, and a decoded push leaves it nil.
	Entries map[ids.AgentID]platform.NodeID
}

// CheckpointResp acknowledges (or rejects) a checkpoint push.
type CheckpointResp struct {
	Status      Status
	HashVersion uint64
}

// LeaseQueryResp reports a replica's view of the primary's lease.
type LeaseQueryResp struct {
	PrimaryExpired bool
	HashVersion    uint64
	Standby        bool
}

// CheckpointState is the copy of one sibling's leaf held by an IAgent,
// valid only for the hash version it was pushed under.
type CheckpointState struct {
	Seq         uint64 // of the next record the sender ships
	HashVersion uint64
	Log         recordLog
}

// recordLog is a held copy: the records a sender shipped, as they arrived.
// Only a fold reads it.
type recordLog struct{ snapshot.Log }

// checkStream checks, allocating nothing, that stream is one a push may
// carry: whole records without IAgent, version or load, a put with an address
// and a delete without.
func checkStream(stream []byte) error {
	var rec snapshot.Record
	for d := wire.NewDec(stream); d.Remaining() > 0; {
		data, err := d.Bytes(wire.MaxFrameLen)
		if err != nil {
			return err
		}
		if err := snapshot.ViewRecord(data, &rec, nil); err != nil {
			return err
		}
		if rec.IAgent != "" || rec.HashVersion != 0 || rec.Load != 0 || (rec.Node == "") != (rec.Op == snapshot.OpDelete) {
			return fmt.Errorf("%w: record of %q is not one a push carries", wire.ErrCorrupt, rec.Agent)
		}
	}
	return nil
}

// fold replays the log through apply into a fresh leaf state: the sender's
// leaf as of its last record, loads aside. Agent ids are views of the log,
// which the table copies; node ids, handles and tags are interned.
func (l recordLog) fold() leafState {
	s := newLeafState()
	var rec snapshot.Record
	changes := make([]change, 1)
	for _, seg := range l.Segments() {
		for d := wire.NewDec(seg); d.Remaining() > 0; {
			data, _ := d.Bytes(wire.MaxFrameLen)
			_ = snapshot.ViewRecord(data, &rec, wireIntern) // checked on arrival
			changes[0] = recordChange(rec)
			changes[0].view = true
			s.apply(changes)
		}
	}
	return s
}

// failoverEnabled reports whether the crash-tolerance subsystem is on.
func (c Config) failoverEnabled() bool { return c.HeartbeatInterval > 0 }

// suspectMisses returns the configured missed-beat budget (default 3).
func (c Config) suspectMisses() int {
	if c.SuspectAfterMisses <= 0 {
		return 3
	}
	return c.SuspectAfterMisses
}

// leaseTTL is how long a lease lives without renewal.
func (c Config) leaseTTL() time.Duration {
	return time.Duration(c.suspectMisses()) * c.HeartbeatInterval
}

// checkpointEvery returns the checkpoint cadence: the heartbeat interval.
func (c Config) checkpointEvery() time.Duration { return c.HeartbeatInterval }

// probeTimeout bounds the HAgent's liveness calls — suspect probes, replica
// beats, lease votes: callTimeout, or the lease when that is shorter, so a
// sweep holds the mailbox no longer than the leases it judges.
func (c Config) probeTimeout() time.Duration {
	return min(c.callTimeout(), c.leaseTTL())
}

// ---------------------------------------------------------------------------
// HAgent side: detector loop, sweep, takeover, replica lease.

var _ platform.Runner = (*HAgentBehavior)(nil)

// Run implements platform.Runner: the failure-detector loop, and the retry
// loop for state pushes. Each sweep runs in the HAgent's mailbox (inMailbox),
// so every piece of detector state is mutated inside the strictly serial
// mailbox — the same serialization argument that makes rehashing safe. With
// the subsystem disabled there is no detector to run and the loop sleeps until
// a push is owed.
func (b *HAgentBehavior) Run(ctx *platform.Context) error {
	if err := b.ensureRuntime(); err != nil {
		return err
	}
	for {
		if b.Cfg.failoverEnabled() {
			if !ctx.Sleep(b.Cfg.HeartbeatInterval) {
				return nil // agent stopped
			}
			_ = b.inMailbox(ctx, b.sweep)
			select {
			case <-b.owed:
			default:
				continue
			}
		} else {
			select {
			case <-b.owed:
			case <-ctx.Done():
				return nil
			}
			// Pace the retries: a receiver that fails fast must not spin.
			if !ctx.Sleep(b.Cfg.CheckInterval) {
				return nil
			}
		}
		b.retryPushes(ctx)
	}
}

// inMailbox runs f, from the Run loop, in the HAgent's mailbox between two
// requests, as HandleRequest serves one. It fails only when the HAgent stops
// before f's turn.
func (b *HAgentBehavior) inMailbox(ctx *platform.Context, f func(*platform.Context)) error {
	return ctx.Do(ctx.Lifetime(), func(_ platform.Behavior, mctx *platform.Context) {
		b.ensureMetrics(mctx)
		f(mctx)
	})
}

// retryPushes is one pass of the retry loop, on the Run goroutine: address
// what is owed in the mailbox, deliver it as one fan-out outside — the IAgents
// still unreachable cost the pass one deadline between them, which no
// LHAgent's fetch or heartbeat queued in the mailbox waits out — and settle
// what landed in the mailbox again. Nothing became owed in between: rehashes
// are refused while a push is owed, and takeovers start from this loop.
func (b *HAgentBehavior) retryPushes(ctx *platform.Context) {
	var pushes []call
	if b.inMailbox(ctx, func(*platform.Context) { pushes = b.owedPushes() }) != nil || len(pushes) == 0 {
		return
	}
	errs := fanOutCalls(ctx, b.Cfg.callTimeout(), pushes)
	_ = b.inMailbox(ctx, func(mctx *platform.Context) { b.settlePushes(mctx, pushes, errs) })
}

// wake re-arms the retry loop.
func (b *HAgentBehavior) wake() {
	select {
	case b.owed <- struct{}{}:
	default:
	}
}

// handleFailover serves the failover message kinds on the HAgent — replicas
// included, so leases accrue wherever the beats land; it returns
// (nil, false, nil) for other kinds.
func (b *HAgentBehavior) handleFailover(ctx *platform.Context, kind string, payload []byte) (any, bool, error) {
	switch kind {
	case KindHeartbeat:
		var req HeartbeatReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		b.lastBeat[req.IAgent] = ctx.Clock().Now()
		b.clearSuspect(ctx, req.IAgent)
		b.reg.Counter("agentloc_iagent_heartbeats_total", "iagent", string(req.IAgent)).Inc()
		// The published version: the newest one a leaf can pull (refreshState);
		// Ignored from a standby while the primary's lease stands: beat there.
		ack := Ack{Status: StatusOK, HashVersion: b.published.Version()}
		if b.Standby && !b.primaryLeaseExpired(ctx) {
			ack.Status = StatusIgnored
		}
		return ack, true, nil
	case KindHAgentBeat:
		b.lastPrimaryBeat = ctx.Clock().Now()
		return Ack{Status: StatusOK, HashVersion: b.state.Ver}, true, nil
	case KindLeaseQuery:
		return LeaseQueryResp{
			PrimaryExpired: b.primaryLeaseExpired(ctx),
			HashVersion:    b.state.Ver,
			Standby:        b.Standby,
		}, true, nil
	default:
		return nil, false, nil
	}
}

// clearSuspect un-suspects an IAgent after a successful beat or probe.
func (b *HAgentBehavior) clearSuspect(ctx *platform.Context, ia ids.AgentID) {
	if !b.suspect[ia] {
		return
	}
	delete(b.suspect, ia)
	b.reg.Gauge("agentloc_iagent_suspect", "iagent", string(ia)).Set(0)
	ctx.Emit("failover.clear", fmt.Sprintf("%s alive again", ia))
}

// sweep is one detector pass, serialized in the HAgent's mailbox. The
// primary checks every IAgent's lease; a standby checks the primary's.
func (b *HAgentBehavior) sweep(ctx *platform.Context) {
	if b.Standby {
		b.standbySweep(ctx)
		return
	}
	now := ctx.Clock().Now()
	ttl := b.Cfg.leaseTTL()
	var probes []call
	for _, ia := range slices.Sorted(maps.Keys(b.state.Locations)) { // sorted: deterministic sweeps and events
		last, seen := b.lastBeat[ia]
		if !seen {
			// First sighting: grant a full lease before judging.
			b.lastBeat[ia] = now
			continue
		}
		if now.Sub(last) < ttl {
			continue
		}
		if !b.suspect[ia] {
			b.suspect[ia] = true
			b.reg.Gauge("agentloc_iagent_suspect", "iagent", string(ia)).Set(1)
			ctx.Emit("failover.suspect", fmt.Sprintf("%s missed %d beats", ia, b.Cfg.suspectMisses()))
		}
		probes = append(probes, call{at: b.state.Locations[ia], agent: ia, kind: KindIAgentPing})
	}
	// Every suspect gets one direct probe before the takeover — a lost
	// heartbeat is not a lost IAgent — and the probes go out together.
	for i, err := range fanOutCalls(ctx, b.Cfg.probeTimeout(), probes) {
		ia := probes[i].agent
		if err == nil {
			b.lastBeat[ia] = ctx.Clock().Now()
			b.clearSuspect(ctx, ia)
			continue
		}
		if err := b.takeover(ctx, ia); err != nil {
			ctx.Emit("failover.error", fmt.Sprintf("takeover of %s: %v", ia, err))
		}
	}
	b.beatReplicas(ctx)
}

// takeover handles a confirmed IAgent failure: force-merge its leaf so the
// sibling subtree serves its id space, bump the hash version, and tell the
// absorbers to activate the failed IAgent's checkpoint. Unlike a
// cooperative merge the failed IAgent is NOT notified (it is gone), and
// absorber notification is best effort — an unreachable absorber is
// retried by the Run loop via pendingNotify, while clients already
// re-route off the bumped version.
func (b *HAgentBehavior) takeover(ctx *platform.Context, failed ids.AgentID) error {
	if b.state.Tree.NumLeaves() <= 1 {
		// The last leaf has no sibling to take over; keep suspecting and
		// let it answer again (or an operator intervene).
		ctx.Emit("failover.skip", fmt.Sprintf("%s is the only IAgent; cannot take over", failed))
		return nil
	}
	newTree, res, err := b.state.Tree.Merge(string(failed))
	if err != nil {
		return fmt.Errorf("HAgent: takeover merge %s: %w", failed, err)
	}
	newState := &State{Ver: b.state.Ver + 1, Tree: newTree, Locations: copyLocations(b.state.Locations)}
	delete(newState.Locations, failed)

	oldState := b.state
	b.state = newState
	b.failovers++
	delete(b.lastBeat, failed)
	b.clearSuspect(ctx, failed)
	b.reg.Counter("agentloc_failover_total", "tier", "iagent").Inc()
	b.reg.Counter("agentloc_core_rehash_total", "op", "failover", "kind", res.Kind.String()).Inc()
	b.updateTreeGauges()
	persist(ctx, b)
	ctx.Emit("failover.takeover", fmt.Sprintf("%s failed; %v absorb (%v merge), v%d",
		failed, res.Absorbers, res.Kind, newState.Ver))

	for _, ia := range affectedIAgents(oldState.Tree, newState.Tree) {
		if ia == failed {
			continue
		}
		b.owe(ia, failed, "")
	}
	b.flushPendingNotify(ctx)
	// Unlike a cooperative rehash a takeover is published at once, absorbers
	// notified or not: the failed IAgent serves nobody, and an absorber that
	// has not adopted yet answers not-responsible, never "unknown agent".
	if b.published != b.state {
		b.publish(ctx)
	}
	return nil
}

// owedPushes addresses every owed push, carrying the current state, so a
// receiver several rehashes behind catches up in one step. It forgets the
// pushes whose receiver left the tree since (failed, or merged and already
// retired).
func (b *HAgentBehavior) owedPushes() []call {
	st, out := b.state.DTO(), make([]call, 0, len(b.pendingNotify))
	for ia, p := range b.pendingNotify {
		node, ok := b.state.Locations[ia]
		if !ok {
			node = p.lastNode
		}
		if node == "" {
			delete(b.pendingNotify, ia)
			continue
		}
		out = append(out, call{at: node, agent: ia, kind: KindAdoptState, req: AdoptStateReq{State: st, PromoteCheckpointOf: p.promote}})
	}
	return out
}

// settlePushes forgets the pushes that are settled — acknowledged: the
// receiver adopted the state and finished its handoffs; or moot: a receiver a
// merge retired is gone from its last node — and closes the round.
func (b *HAgentBehavior) settlePushes(ctx *platform.Context, pushes []call, errs []error) {
	for i, err := range errs {
		ia := pushes[i].agent
		if _, live := b.state.Locations[ia]; err == nil || !live && platform.IsAgentNotFound(err) {
			delete(b.pendingNotify, ia)
		}
	}
	b.settle(ctx)
}

// flushPendingNotify is the first, in-mailbox attempt at the owed pushes, all
// in flight together — the rehash that queued them completes before the
// HAgent serves anything else, as long as every IAgent answers, and IAgents
// that do not cost it one deadline between them. Failures stay queued for the
// Run loop.
func (b *HAgentBehavior) flushPendingNotify(ctx *platform.Context) {
	pushes := b.owedPushes()
	b.settlePushes(ctx, pushes, fanOutCalls(ctx, b.Cfg.callTimeout(), pushes))
}

// settle closes a round of pushes: with some still owed it re-arms the retry
// loop, with none it publishes the state they carried.
func (b *HAgentBehavior) settle(ctx *platform.Context) {
	switch {
	case len(b.pendingNotify) > 0:
		b.wake()
	case b.published != b.state:
		b.publish(ctx)
	}
}

// beatReplicas renews the primary's lease at every replica, best effort —
// the liveness analogue of propagate.
func (b *HAgentBehavior) beatReplicas(ctx *platform.Context) {
	fanOutCalls(ctx, b.Cfg.probeTimeout(), b.toReplicas(ctx, KindHAgentBeat, nil))
}

// primaryLeaseExpired reports a standby's local view of the primary's
// lease. A replica that has never heard the primary grants a fresh lease
// first (startup grace).
func (b *HAgentBehavior) primaryLeaseExpired(ctx *platform.Context) bool {
	if !b.Standby || !b.Cfg.failoverEnabled() {
		return false
	}
	now := ctx.Clock().Now()
	if b.lastPrimaryBeat.IsZero() {
		b.lastPrimaryBeat = now
		return false
	}
	return now.Sub(b.lastPrimaryBeat) >= b.Cfg.leaseTTL()
}

// standbySweep is the replica side of the detector: when the primary's
// lease expires locally, the first-configured replica (deterministic
// tie-break) polls its peers and promotes itself only on a majority — the
// split-brain guard. A lone replica's own vote is the (degenerate) quorum.
func (b *HAgentBehavior) standbySweep(ctx *platform.Context) {
	if !b.primaryLeaseExpired(ctx) {
		return
	}
	refs := b.Cfg.HAgentReplicas
	if len(refs) == 0 || refs[0].Agent != ctx.Self() || refs[0].Node != ctx.Node() {
		return // only the first replica initiates promotion
	}
	polls := b.toReplicas(ctx, KindLeaseQuery, nil)
	for i := range polls {
		polls[i].resp = &LeaseQueryResp{}
	}
	votes := 1 // self: the local lease is expired
	for i, err := range fanOutCalls(ctx, b.Cfg.probeTimeout(), polls) {
		if err == nil && polls[i].resp.(*LeaseQueryResp).PrimaryExpired {
			votes++
		}
	}
	if votes*2 <= len(refs) {
		ctx.Emit("failover.no-quorum", fmt.Sprintf("primary lease expired here but only %d/%d replicas agree", votes, len(refs)))
		return
	}
	b.promote(ctx, fmt.Sprintf("with %d/%d votes", votes, len(refs)))
}

// promote turns this standby into the primary, the one way both promotions —
// an explicit KindPromote and the lease detector's quorum — take: it counts
// the failover, persists the section, so a durable node recovers the replica
// as the (fenced) primary rather than a standby, and logs why.
func (b *HAgentBehavior) promote(ctx *platform.Context, why string) {
	b.Standby = false
	b.failovers++
	b.reg.Counter("agentloc_failover_total", "tier", "hagent").Inc()
	persist(ctx, b)
	ctx.Emit("failover.promote", fmt.Sprintf("promoted to primary at v%d %s", b.state.Ver, why))
}

// ---------------------------------------------------------------------------
// IAgent side: heartbeats, checkpoint push/receive/activate.

// sendHeartbeat renews this IAgent's lease, walking the fallbacks so beats
// reach whichever HAgent is alive (a promoted replica inherits the leases).
// The ack names the published hash version; a newer one than this leaf holds
// is a rehash that left the leaf alone — nobody pushes it that state — and is
// pulled at once.
func (b *IAgentBehavior) sendHeartbeat(ctx *platform.Context) {
	req := HeartbeatReq{IAgent: ctx.Self(), HashVersion: b.state.Load().Version()}
	var ack Ack
	src, err := askHAgents(ctx.Lifetime(), b.Cfg, CtxCaller{ctx}, &b.hagent, KindHeartbeat, req, &ack, func(err error) bool { return err == nil && ack.Status == StatusOK })
	if err == nil && ack.HashVersion > req.HashVersion {
		b.refreshState(ctx, src)
	}
}

// refreshState is §4.3 between leaves: a stale hash copy is detected (the
// heartbeat ack) and refreshed, never trusted. The pulled state is installed
// only if this leaf serves the same id space under it: a leaf whose label
// changed is owed a KindAdoptState push, which also moves its entries and
// names the checkpoint to restore, and must not get ahead of it. Installing
// such a state changes nothing else about the leaf — what it serves, what its
// buddy holds of it and what it has measured all still stand.
func (b *IAgentBehavior) refreshState(ctx *platform.Context, src HAgentRef) {
	var resp GetHashResp
	err := callWithin(ctx.Lifetime(), b.Cfg.callTimeout(), CtxCaller{ctx}, src.Node, src.Agent, KindGetHash, GetHashReq{IfNewerThan: b.state.Load().Version()}, &resp)
	if err != nil || resp.Unchanged {
		return
	}
	st, err := FromDTO(resp.State)
	if err != nil {
		return
	}
	b.mu.Lock()
	if cur := b.state.Load(); st.Version() > cur.Version() && sameLeaf(cur.Tree, st.Tree, string(ctx.Self())) {
		b.installState(ctx.Self(), st, "")
	}
	b.mu.Unlock()
}

// installState makes st the leaf's hash state — the one place a running leaf
// does — and takes the sibling copies it holds across the version bump. A copy
// whose sender serves the same id space under st as before, with this leaf
// still its buddy, is still a copy of that sender's leaf: it is restamped, so
// the sender's next delta finds its base. Any other is dropped: its sender left
// the tree, hands entries off or pushes elsewhere now, and sends a full copy
// to its buddy of the day. keep names the one departed sender whose copy must
// outlive the install: the failed leaf a takeover restores from it. Caller
// holds mu.
func (b *IAgentBehavior) installState(self ids.AgentID, st *State, keep ids.AgentID) {
	cur := b.state.Load()
	b.state.Store(st)
	for src, held := range b.checkpoints {
		switch {
		case src == keep:
		case held.HashVersion == cur.Version() && sameLeaf(cur.Tree, st.Tree, string(src)) && checkpointBuddy(st, src) == self:
			held.HashVersion = st.Version()
			b.checkpoints[src] = held
		default:
			delete(b.checkpoints, src)
		}
	}
}

// checkpointBuddy resolves the sibling leaf this IAgent checkpoints to
// under the given state: the first absorber a merge of this leaf would
// produce. Empty when the IAgent is the only leaf.
func checkpointBuddy(st *State, self ids.AgentID) ids.AgentID {
	if st == nil || st.Tree == nil {
		return ""
	}
	sibs, err := st.Tree.SiblingLeaves(string(self))
	if err != nil || len(sibs) == 0 {
		return ""
	}
	return ids.AgentID(sibs[0])
}

// armFullCheckpoint makes the next push a full one and drops the suffix it
// supersedes. It is owed at runtime start, when what this leaf serves or whom
// it pushes to changed, when the suffix outgrew ckSuffixBytes, when the buddy
// holds no base for a delta, and when a full push did not land whole — never
// for a version mismatch alone, which the refresh off the next heartbeat
// settles. Caller holds mu (or is still single-threaded in ensureRuntime).
func (b *IAgentBehavior) armFullCheckpoint() {
	b.ckFull = true
	b.ckSeq += uint64(b.ckLen)
	b.ckSuffix, b.ckLen = nil, 0 // a push in flight may still read the old one
}

// checkpointLag is how many records the sibling copy is behind: the
// unacknowledged suffix, or the whole table while a full push is owed. Caller
// holds mu.
func (b *IAgentBehavior) checkpointLag() int64 {
	if b.ckFull {
		return int64(b.leaf.table.Len())
	}
	return int64(b.ckLen)
}

const (
	ckChunkEntries = 8192    // records in one chunk of a full push
	ckSuffixBytes  = 4 << 20 // past it, the suffix gives way to a full push
	ckSuffixKeep   = 64 << 10
)

// pushCheckpoint brings the sibling leaf's copy of this leaf up to date, best
// effort: the suffix the buddy has not acknowledged, which an acknowledgement
// trims, or — when a full push is owed — the table, loads aside, in chunks cut
// off the reader, which holds no lock while one travels (what the buddy holds
// part-way through is a partial but current copy).
func (b *IAgentBehavior) pushCheckpoint(ctx *platform.Context) {
	st := b.state.Load()
	b.mu.Lock()
	buddy := checkpointBuddy(st, ctx.Self())
	if buddy != b.ckBuddy {
		b.ckBuddy = buddy
		b.armFullCheckpoint()
	}
	full, seq, suffix, n := b.ckFull, b.ckSeq, b.ckSuffix, b.ckLen
	if buddy == "" || !full && n == 0 {
		b.metCkLag.Set(b.checkpointLag())
		b.mu.Unlock()
		return
	}
	b.ckFull = false // a full push opens the suffix before the table is read
	b.mu.Unlock()

	status, err := StatusOK, error(nil)
	send := func(req *CheckpointReq, sent *metrics.Counter, n int) bool {
		req.From, req.HashVersion, req.Seq, req.Live = ctx.Self(), st.Version(), seq, uint64(b.leaf.table.Len())
		sent.Add(uint64(n))
		var resp CheckpointResp
		err = callWithin(ctx.Lifetime(), b.Cfg.callTimeout(), CtxCaller{ctx}, st.Locations[buddy], buddy, KindCheckpoint, req, &resp)
		status = resp.Status
		return err == nil && status == StatusOK
	}
	if full {
		req, k := CheckpointReq{Full: true}, 0
		ship := func() bool {
			ok := send(&req, b.metCkSentFull, k)
			req.Records, req.Offset, k = req.Records[:0], req.Offset+uint64(k), 0
			return ok
		}
		// The first chunk is empty: a buddy yet to pull this version refuses it
		// before a record ships, instead of receiving the table each heartbeat.
		if ship() {
			b.leaf.each(nil, func(r record) bool {
				req.Records, k = snapshot.AppendStream(req.Records, r.put(0)), k+1
				return k < ckChunkEntries || ship()
			})
			if err == nil && status == StatusOK && k > 0 {
				ship() // the rest
			}
		}
	} else {
		send(&CheckpointReq{Records: suffix}, b.metCkSentDelta, n)
	}

	b.mu.Lock()
	switch {
	case err == nil && status == StatusOK:
		if !full && !b.ckFull { // the buddy holds the records sent: trim them
			b.ckSuffix = append(b.ckSuffix[:0], b.ckSuffix[len(suffix):]...)
			b.ckSeq, b.ckLen = b.ckSeq+uint64(n), b.ckLen-n
			if b.ckLen == 0 && cap(b.ckSuffix) > ckSuffixKeep {
				b.ckSuffix = nil // an emptied suffix keeps no big array
			}
		}
	case full || (err == nil && status == StatusIgnored):
		// A full push that did not land whole is owed again, and one is owed
		// to a buddy that holds no base for the delta.
		b.armFullCheckpoint()
	}
	b.metCkLag.Set(b.checkpointLag())
	b.mu.Unlock()
}

// acceptCheckpoint serves KindCheckpoint: check the sibling's records and
// append them to the copy held of it, but only when both sides agree on the
// hash version — a push racing a rehash is rejected so entries can never
// resurrect on the wrong leaf. A delta appends what follows the records held;
// one that would leave a gap, like a chunk the copy does not continue, asks
// for a full push.
func (b *IAgentBehavior) acceptCheckpoint(req CheckpointReq) (CheckpointResp, error) {
	if err := checkStream(req.Records); err != nil {
		return CheckpointResp{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	resp := CheckpointResp{Status: StatusOK, HashVersion: b.state.Load().Version()}
	if req.HashVersion != resp.HashVersion {
		resp.Status = StatusNotResponsible
		return resp, nil
	}
	held, ok := b.checkpoints[req.From]
	switch ok = ok && held.HashVersion == req.HashVersion; {
	case req.Full && req.Offset == 0:
		held = CheckpointState{Seq: req.Seq, HashVersion: req.HashVersion}
	case !ok || req.Seq > held.Seq || req.Full && (req.Seq != held.Seq || req.Offset != uint64(held.Log.Len())):
		resp.Status = StatusIgnored
		return resp, nil
	case !req.Full: // past what the copy holds; compacted past twice the live entries
		held.Seq += uint64(held.Log.Append(req.Records, held.Seq-req.Seq))
		if uint64(held.Log.Len()) > 2*req.Live {
			folded := held.Log.fold().appendRecords(nil)
			held.Log = recordLog{}
			held.Log.Append(folded, 0)
		}
	}
	if req.Full {
		held.Log.Append(req.Records, 0)
	}
	if b.checkpoints == nil {
		b.checkpoints = make(map[ids.AgentID]CheckpointState)
	}
	b.checkpoints[req.From] = held
	return resp, nil
}

// activateCheckpoint restores the failed IAgent's folded copy after a
// takeover — only the agents this IAgent owns under the new state (another
// absorber's slice heals lazily) and only where it has no fresher entry of its
// own (local wins), each bound like a handed-off agent, re-pointing no handle
// this leaf holds. The write is best effort, as the checkpoint scheme is.
func (b *IAgentBehavior) activateCheckpoint(ctx *platform.Context, failed ids.AgentID) {
	st := b.state.Load()
	b.mu.Lock()
	ck, ok := b.checkpoints[failed]
	delete(b.checkpoints, failed)
	b.mu.Unlock()
	if !ok {
		return
	}
	var restore []change
	ck.Log.fold().each(func(hash uint64) bool {
		owner, _, err := st.OwnerOfHash(hash)
		return err == nil && owner == ctx.Self()
	}, func(r record) bool {
		if _, local := b.leaf.get(r.agent); !local {
			restore = append(restore, change{agent: r.agent, hash: r.hash, node: r.node, handle: r.handle, caps: r.caps, handoff: true, view: true})
		}
		return true
	})
	_ = b.write(ctx, st.Version(), restore, true)
	if len(restore) > 0 {
		ctx.Emit("failover.restore", fmt.Sprintf("restored %d entries of failed %s from checkpoint", len(restore), failed))
	}
}

// decodeFailover routes the failover kinds inside IAgent.HandleRequest; it
// returns (nil, false, nil) for other kinds.
func (b *IAgentBehavior) decodeFailover(ctx *platform.Context, kind string, payload []byte) (any, bool, error) {
	switch kind {
	case KindIAgentPing:
		// Probes bypass the rate estimator: liveness traffic must not
		// influence split/merge decisions.
		return Ack{Status: StatusOK, HashVersion: b.state.Load().Version()}, true, nil
	case KindCheckpoint:
		// A push from across a rehash is refused on its first field, before
		// any record is read; acceptCheckpoint checks again, under mu.
		if ver, binary := checkpointReqVersion(payload); binary {
			if cur := b.state.Load().Version(); ver != cur {
				return CheckpointResp{Status: StatusNotResponsible, HashVersion: cur}, true, nil
			}
		}
		var req CheckpointReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		resp, err := b.acceptCheckpoint(req)
		return resp, true, err
	default:
		return nil, false, nil
	}
}
