package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// Extra message kinds served by the HAgent for introspection.
const (
	// KindHashStats returns rehashing counters and the current tree shape.
	KindHashStats = "hash.stats"
)

// HashStatsResp summarizes the HAgent's view for tools and experiments.
type HashStatsResp struct {
	HashVersion uint64
	NumIAgents  int
	Splits      uint64
	Merges      uint64
	Locations   map[ids.AgentID]platform.NodeID
	TreeRender  string
	// Failover introspection (crash-tolerance extension).
	Suspects  []ids.AgentID
	Failovers uint64
	Standby   bool
}

// HAgentBehavior is the Hash Agent: it holds the primary copy of the hash
// function (paper §2.2) and coordinates rehashing, ensuring only one split
// or merge is in progress at a time — its strictly serial mailbox provides
// exactly that guarantee.
type HAgentBehavior struct {
	// Cfg is the mechanism configuration.
	Cfg Config
	// InitialState seeds the primary copy when the HAgent starts.
	InitialState StateDTO
	// NextIAgentSeq numbers newly created IAgents.
	NextIAgentSeq uint64
	// Standby marks a replica: it accepts state pushes and serves reads
	// but declines rehash requests until promoted.
	Standby bool
	// NotifyOnRecover marks an HAgent relaunched from a snapshot store with
	// its hash version fenced (bumped past anything a pre-crash client
	// holds): every IAgent in the recovered state is queued for a state
	// push, delivered by the Run loop's pendingNotify retries, so the whole
	// cluster converges on the fenced version. Set by RecoverNode.
	NotifyOnRecover bool

	once    sync.Once
	initErr error

	state *State
	// published is the newest state whose rehash is finished — every
	// affected IAgent has adopted it and handed its entries off. It is what
	// LHAgents (and through them clients) and the replicas are given; state
	// runs ahead of it only while pendingNotify holds a rehash push. Routing
	// clients by a state whose handoffs are still in flight would send them
	// to an owner that answers "unknown agent" for entries it is about to
	// receive.
	published *State
	placeIdx  int
	splits    uint64
	merges    uint64

	// Failure-detector state, all mutated inside the serial mailbox (the
	// Run loop's sweeps run there too, through inMailbox).
	lastBeat        map[ids.AgentID]time.Time
	suspect         map[ids.AgentID]bool
	failovers       uint64
	lastPrimaryBeat time.Time
	// pendingNotify holds the state pushes still owed to IAgents: rehash
	// and takeover notifications not acknowledged yet. The Run loop retries
	// them (retryPushes).
	pendingNotify map[ids.AgentID]pendingPush
	// owed wakes the Run loop while pendingNotify is non-empty.
	owed chan struct{}

	reg     *metrics.Registry
	metInit bool
}

// pendingPush is a state push the HAgent owes one IAgent.
type pendingPush struct {
	// promote names the failed IAgent whose checkpoint the receiver must
	// activate (takeover); empty for a plain state push.
	promote ids.AgentID
	// lastNode is where an IAgent a merge removed from the tree was hosted.
	// It is in no location directory any more, but it still has to learn
	// that its leaf is gone, hand off its entries and retire.
	lastNode platform.NodeID
}

var _ platform.Behavior = (*HAgentBehavior)(nil)

// ensureRuntime decodes the initial state on first use.
func (b *HAgentBehavior) ensureRuntime() error {
	b.once.Do(func() {
		st, err := FromDTO(b.InitialState)
		if err != nil {
			b.initErr = fmt.Errorf("HAgent: initial state: %w", err)
			return
		}
		b.state, b.published = st, st
		if b.NextIAgentSeq == 0 {
			b.NextIAgentSeq = uint64(st.Tree.NumLeaves())
		}
		b.lastBeat = make(map[ids.AgentID]time.Time)
		b.suspect = make(map[ids.AgentID]bool)
		b.pendingNotify = make(map[ids.AgentID]pendingPush)
		b.owed = make(chan struct{}, 1)
		if b.NotifyOnRecover {
			for ia := range st.Locations {
				b.owe(ia, "", "")
			}
		}
	})
	return b.initErr
}

// HandleRequest implements platform.Behavior. The serial mailbox means no
// two rehash operations ever interleave.
func (b *HAgentBehavior) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	if err := b.ensureRuntime(); err != nil {
		return nil, err
	}
	b.ensureMetrics(ctx)
	if resp, handled, err := b.handleReplication(ctx, kind, payload); handled {
		return resp, err
	}
	if resp, handled, err := b.handleFailover(ctx, kind, payload); handled {
		return resp, err
	}
	// A standby never rehashes, and the primary runs one rehash at a time:
	// while a state push is still owed, the last one is not finished.
	if b.Standby || len(b.pendingNotify) > 0 {
		switch kind {
		case KindRequestSplit, KindRequestMerge:
			return RehashResp{Status: StatusIgnored, HashVersion: b.state.Ver, Standby: b.Standby}, nil
		}
	}
	switch kind {
	case KindGetHash:
		var req GetHashReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if b.published.Version() <= req.IfNewerThan {
			return GetHashResp{Unchanged: true}, nil
		}
		return GetHashResp{State: b.published.DTO()}, nil
	case KindHashStats:
		return HashStatsResp{
			HashVersion: b.state.Version(),
			NumIAgents:  b.state.Tree.NumLeaves(),
			Splits:      b.splits,
			Merges:      b.merges,
			Locations:   copyLocations(b.state.Locations),
			TreeRender:  b.state.Tree.Describe(),
			Suspects:    slices.Sorted(maps.Keys(b.suspect)),
			Failovers:   b.failovers,
			Standby:     b.Standby,
		}, nil
	case KindRequestSplit:
		var req RequestSplitReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		sp := ctx.StartSpan("control", "rehash.split")
		resp, err := b.split(ctx, req)
		sp.End(err)
		return resp, err
	case KindRequestMerge:
		var req RequestMergeReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		sp := ctx.StartSpan("control", "rehash.merge")
		resp, err := b.merge(ctx, req)
		sp.End(err)
		return resp, err
	default:
		return nil, fmt.Errorf("HAgent: unknown request kind %q", kind)
	}
}

// ensureMetrics adopts the hosting node's registry on first request. The
// HAgent's serial mailbox makes the lazy initialisation safe, and nil-safe
// handles mean a node without metrics costs nothing here.
func (b *HAgentBehavior) ensureMetrics(ctx *platform.Context) {
	if b.metInit {
		return
	}
	b.metInit = true
	b.reg = ctx.Metrics()
	b.reg.Describe("agentloc_core_rehash_total", "Completed rehash operations, by operation and split/merge kind.")
	b.reg.Describe("agentloc_core_hashtree_leaves", "Leaves (live IAgents) in the primary hash tree.")
	b.reg.Describe("agentloc_core_hashtree_depth", "Height of the primary hash tree.")
	b.reg.Describe("agentloc_core_hash_version", "Version of the primary hash state.")
	b.reg.Describe("agentloc_iagent_heartbeats_total", "IAgent lease renewals received, by IAgent.")
	b.reg.Describe("agentloc_iagent_suspect", "1 while the IAgent's lease is expired and unconfirmed, else 0.")
	b.reg.Describe("agentloc_failover_total", "Automatic takeovers (tier=iagent) and promotions, automatic or requested (tier=hagent).")
	// Pre-create the failover series so a healthy node exports zeros
	// (the PR 2 convention: absence is indistinguishable from silence).
	b.reg.Counter("agentloc_failover_total", "tier", "iagent")
	b.reg.Counter("agentloc_failover_total", "tier", "hagent")
	for ia := range b.state.Locations {
		b.reg.Counter("agentloc_iagent_heartbeats_total", "iagent", string(ia))
		b.reg.Gauge("agentloc_iagent_suspect", "iagent", string(ia)).Set(0)
	}
	b.updateTreeGauges()
	// First contact on this node: persist the birth (or post-recovery)
	// section so the store always holds a decodable HAgent base.
	persist(ctx, b)
}

// updateTreeGauges mirrors the primary hash state's shape into gauges after
// every state change.
func (b *HAgentBehavior) updateTreeGauges() {
	if b.reg == nil {
		return
	}
	b.reg.Gauge("agentloc_core_hashtree_leaves").Set(int64(b.state.Tree.NumLeaves()))
	b.reg.Gauge("agentloc_core_hashtree_depth").Set(int64(b.state.Tree.Height()))
	b.reg.Gauge("agentloc_core_hash_version").Set(int64(b.state.Version()))
}

// Split-candidate policy (paper §4.1). A candidate is even when its load
// split deviates from 50/50 by at most splitEvenness — 0.15 accepts splits
// between 35/65 and 65/35; simple splits are tried up to m = maxSimpleBits,
// and if none is even the best candidate seen is used.
const (
	splitEvenness = 0.15
	maxSimpleBits = 8
)

// split serves an overloaded IAgent's split request (paper §4.1): pick the
// candidate that divides the reported load most evenly — complex splits
// first, then simple splits with growing m — create the new IAgent, install
// the new hash version, and notify every involved IAgent.
func (b *HAgentBehavior) split(ctx *platform.Context, req RequestSplitReq) (RehashResp, error) {
	if req.HashVersion < b.state.Version() || !b.state.Tree.Contains(string(req.IAgent)) {
		return RehashResp{Status: StatusIgnored, HashVersion: b.state.Version()}, nil
	}
	cands, err := b.state.Tree.SplitCandidates(string(req.IAgent), maxSimpleBits)
	if err != nil {
		return RehashResp{}, fmt.Errorf("HAgent: split %s: %w", req.IAgent, err)
	}
	cand, ok := chooseSplit(cands, splitEvaluator(req), splitEvenness)
	if !ok {
		return RehashResp{Status: StatusIgnored, HashVersion: b.state.Version()}, nil
	}

	b.NextIAgentSeq++
	newID := ids.AgentID(fmt.Sprintf("iagent-%d", b.NextIAgentSeq))
	newTree, err := b.state.Tree.ApplySplit(cand, string(newID))
	if err != nil {
		return RehashResp{}, fmt.Errorf("HAgent: apply split %v: %w", cand, err)
	}

	newNode := b.nextPlacement()
	newState := &State{Ver: b.state.Ver + 1, Tree: newTree, Locations: copyLocations(b.state.Locations)}
	newState.Locations[newID] = newNode

	// Launch the new IAgent, pre-loaded with the new state, before
	// notifying anyone: handoffs target it immediately.
	// Its Cfg crosses to another node as gob, which cannot carry the
	// process-local Clock; a leaf reads none (the clock it runs on is its
	// node's).
	cfg := b.Cfg
	cfg.Clock = nil
	newBehavior := &IAgentBehavior{Cfg: cfg, StateSnapshot: newState.DTO()}
	// Not callWithin: a launch is no call through a Caller but a transfer
	// the node makes.
	cctx, cancel := context.WithTimeout(context.Background(), b.Cfg.callTimeout())
	err = ctx.LaunchAt(cctx, newNode, newID, newBehavior, b.Cfg.IAgentServiceTime)
	cancel()
	if err != nil {
		b.NextIAgentSeq--
		return RehashResp{}, fmt.Errorf("HAgent: launch %s at %s: %w", newID, newNode, err)
	}

	oldState := b.state
	b.state = newState
	b.splits++
	if b.Cfg.failoverEnabled() {
		// The newborn gets a full lease and zeroed liveness series.
		b.lastBeat[newID] = ctx.Clock().Now()
		b.reg.Counter("agentloc_iagent_heartbeats_total", "iagent", string(newID))
		b.reg.Gauge("agentloc_iagent_suspect", "iagent", string(newID)).Set(0)
	}
	b.reg.Counter("agentloc_core_rehash_total", "op", "split", "kind", cand.Kind.String()).Inc()
	b.updateTreeGauges()
	persist(ctx, b)
	ctx.Emit("rehash.split", fmt.Sprintf("%s (%v rate %.0f/s) → new %s at %s, v%d",
		req.IAgent, cand.Kind, req.Rate, newID, newNode, newState.Ver))

	b.notifyAffected(ctx, oldState, newID)
	return RehashResp{Status: StatusOK, HashVersion: b.state.Version()}, nil
}

// merge serves an underloaded IAgent's merge request (paper §4.2).
func (b *HAgentBehavior) merge(ctx *platform.Context, req RequestMergeReq) (RehashResp, error) {
	if req.HashVersion < b.state.Version() || !b.state.Tree.Contains(string(req.IAgent)) {
		return RehashResp{Status: StatusIgnored, HashVersion: b.state.Version()}, nil
	}
	if b.state.Tree.NumLeaves() <= 1 {
		return RehashResp{Status: StatusIgnored, HashVersion: b.state.Version()}, nil
	}
	newTree, res, err := b.state.Tree.Merge(string(req.IAgent))
	if err != nil {
		return RehashResp{}, fmt.Errorf("HAgent: merge %s: %w", req.IAgent, err)
	}
	newState := &State{Ver: b.state.Ver + 1, Tree: newTree, Locations: copyLocations(b.state.Locations)}
	delete(newState.Locations, req.IAgent)

	oldState := b.state
	b.state = newState
	b.merges++
	delete(b.lastBeat, req.IAgent)
	b.clearSuspect(ctx, req.IAgent)
	b.reg.Counter("agentloc_core_rehash_total", "op", "merge", "kind", res.Kind.String()).Inc()
	b.updateTreeGauges()
	persist(ctx, b)
	ctx.Emit("rehash.merge", fmt.Sprintf("%s (rate %.1f/s) absorbed, v%d", req.IAgent, req.Rate, newState.Ver))

	// The merged IAgent is notified like every other affected IAgent; on
	// adopting a state without its leaf it hands off everything and
	// disposes itself. It was removed from Locations (future lookups), so
	// the notification is sent to its last known node.
	b.notifyAffected(ctx, oldState, "")
	return RehashResp{Status: StatusOK, HashVersion: b.state.Version()}, nil
}

// notifyAffected pushes the state just installed to every IAgent whose
// served pattern changed since oldState, except skip (the freshly launched
// IAgent, which already has it). The rehash is committed by now, so an
// unreachable IAgent does not fail it: the push stays owed and the Run loop
// retries it until it lands — otherwise that IAgent would answer from the old
// version forever, and the ones after it in the loop with it. The new state
// is published once the last push is acknowledged (settle).
func (b *HAgentBehavior) notifyAffected(ctx *platform.Context, oldState *State, skip ids.AgentID) {
	for _, ia := range affectedIAgents(oldState.Tree, b.state.Tree) {
		if ia == skip {
			continue
		}
		lastNode := platform.NodeID("")
		if _, ok := b.state.Locations[ia]; !ok {
			lastNode = oldState.Locations[ia]
		}
		b.owe(ia, "", lastNode)
	}
	b.flushPendingNotify(ctx)
}

// owe queues a state push to ia. A checkpoint promotion already owed to it
// survives a later plain push.
func (b *HAgentBehavior) owe(ia, promote ids.AgentID, lastNode platform.NodeID) {
	if promote == "" {
		promote = b.pendingNotify[ia].promote
	}
	b.pendingNotify[ia] = pendingPush{promote: promote, lastNode: lastNode}
	b.wake()
}

// publish makes the current state the one LHAgents are served and pushes it
// to the replicas (and, under the eager ablation, to every LHAgent).
func (b *HAgentBehavior) publish(ctx *platform.Context) {
	b.published = b.state
	b.propagate(ctx)
}

// nextPlacement picks the node for a newly created IAgent, round-robin over
// the configured placement nodes.
func (b *HAgentBehavior) nextPlacement() platform.NodeID {
	nodes := b.Cfg.PlacementNodes
	if len(nodes) == 0 {
		return b.Cfg.HAgentNode
	}
	n := nodes[b.placeIdx%len(nodes)]
	b.placeIdx++
	return n
}

// loadEvaluator estimates the fraction of the requester's load a split
// candidate would move to the new IAgent. hasLoad is false when no load
// statistics were reported at all.
type loadEvaluator func(bitPos int, newOnBit byte) (frac float64, hasLoad bool)

// splitEvaluator builds the evaluator for a split request from its per-bit
// load vector (paper §4.1), folding any PerAgent counts into it first.
func splitEvaluator(req RequestSplitReq) loadEvaluator {
	ones, total := req.BitLoad, req.Total
	for agent, n := range req.PerAgent {
		addBitLoad(&ones, agent.Hash64(), n)
		total += n
	}
	return func(bitPos int, newOnBit byte) (float64, bool) {
		if total == 0 {
			return 0.5, false
		}
		moved := ones[bitPos]
		if newOnBit == 0 {
			moved = total - moved
		}
		return float64(moved) / float64(total), true
	}
}

// addBitLoad charges load to every set bit of an id hash, bit i of
// ones counting the hash's i-th bit from the top.
func addBitLoad(ones *[64]uint64, hash, load uint64) {
	for h := hash; h != 0; h &= h - 1 {
		ones[63-bits.TrailingZeros64(h)] += load
	}
}

// chooseSplit picks the first candidate whose load split deviates from
// 50/50 by at most evenness; if none qualifies, the most even candidate
// that moves a non-trivial share of the load is used (the rate is above
// Tmax — splitting sub-optimally beats not splitting). With no load data at
// all the first simple candidate is chosen.
func chooseSplit(cands []hashtree.SplitCandidate, eval loadEvaluator, evenness float64) (hashtree.SplitCandidate, bool) {
	best := -1
	bestDev := math.Inf(1)
	for i, c := range cands {
		frac, hasLoad := eval(c.BitPos, c.NewOnBit)
		if !hasLoad {
			// No statistics: fall back to the first simple split.
			for _, fc := range cands {
				if fc.Kind == hashtree.SplitSimple {
					return fc, true
				}
			}
			if len(cands) > 0 {
				return cands[0], true
			}
			return hashtree.SplitCandidate{}, false
		}
		dev := math.Abs(frac - 0.5)
		if dev <= evenness {
			return c, true
		}
		// A candidate moving none or all of the load does not relieve the
		// requester; keep it only as a last resort.
		if frac > 0 && frac < 1 && dev < bestDev {
			best, bestDev = i, dev
		}
	}
	if best >= 0 {
		return cands[best], true
	}
	return hashtree.SplitCandidate{}, false
}

// copyLocations copies an IAgent location map.
func copyLocations(in map[ids.AgentID]platform.NodeID) map[ids.AgentID]platform.NodeID {
	out := make(map[ids.AgentID]platform.NodeID, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// ChooseSplitForTest exposes the split-candidate selection to benchmarks
// and external tests; production code goes through the HAgent protocol.
func ChooseSplitForTest(cands []hashtree.SplitCandidate, req RequestSplitReq, evenness float64) (hashtree.SplitCandidate, bool) {
	return chooseSplit(cands, splitEvaluator(req), evenness)
}
