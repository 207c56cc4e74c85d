package core

import (
	"fmt"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// This file implements the paper's second §7 extension: fault tolerance for
// the HAgent — "we are supporting a primary copy mechanism for the hash
// function, thus making the HAgent that keeps this copy a vulnerability
// point."
//
// The design adds standby HAgents (replicas):
//
//   - The primary pushes every state change to each replica, best effort;
//     a briefly lagging replica is no worse than a stale LHAgent (the
//     client protocol already tolerates staleness).
//   - Replicas answer reads (KindGetHash / KindHashStats) but decline
//     rehash requests with StatusIgnored.
//   - LHAgents try the primary first and fail over to replicas for reads,
//     so agents stay locatable while the primary is down.
//   - Promotion is either explicit (KindPromote, for operators and
//     external failure detectors) or automatic via the lease detector in
//     failover.go: the first-configured replica promotes itself only when
//     a quorum of replicas agrees the primary's lease is expired (the
//     split-brain guard; see standbySweep).

// Replication message kinds.
const (
	// KindReplicate pushes the primary's state to a replica.
	KindReplicate = "hash.replicate"
	// KindPromote turns a replica into the primary.
	KindPromote = "hash.promote"
)

// HAgentRef names an HAgent instance and its (static) node.
type HAgentRef struct {
	Agent ids.AgentID
	Node  platform.NodeID
}

// ReplicateReq carries a state push from the primary.
type ReplicateReq struct {
	State StateDTO
}

// PromoteResp acknowledges a promotion.
type PromoteResp struct {
	HashVersion uint64
}

// handleReplication serves the replication message kinds; it returns
// (nil, false, nil) for kinds it does not handle.
func (b *HAgentBehavior) handleReplication(ctx *platform.Context, kind string, payload []byte) (any, bool, error) {
	switch kind {
	case KindReplicate:
		var req ReplicateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		st, err := FromDTO(req.State)
		if err != nil {
			return nil, true, fmt.Errorf("HAgent replica: %w", err)
		}
		if st.Ver > b.state.Ver {
			b.state, b.published = st, st
			b.updateTreeGauges()
			// A durable standby persists each adopted state, so the node it
			// lives on can cold-start the replica at the version it held.
			persist(ctx, b)
		}
		// A state push proves the primary alive just as well as a beat.
		b.lastPrimaryBeat = ctx.Clock().Now()
		return Ack{Status: StatusOK, HashVersion: b.state.Ver}, true, nil
	case KindPromote:
		if b.Standby {
			b.promote(ctx, "on request")
		}
		return PromoteResp{HashVersion: b.state.Ver}, true, nil
	default:
		return nil, false, nil
	}
}

// propagate pushes the current state to every configured replica and, when
// the eager ablation flag is on, to every LHAgent — one fan-out, best effort.
// Replica lag is tolerable by design; persistent failures surface through the
// replica's own staleness, not by failing rehashes. An unreachable LHAgent
// just stays stale, exactly as in the paper's design, which lets LHAgents
// refresh on demand (§4.3), trading propagation traffic for occasional
// stale-copy retries.
func (b *HAgentBehavior) propagate(ctx *platform.Context) {
	if len(b.Cfg.HAgentReplicas) == 0 && !b.Cfg.EagerPropagation {
		return
	}
	st := b.state.DTO()
	calls := b.toReplicas(ctx, KindReplicate, ReplicateReq{State: st})
	if b.Cfg.EagerPropagation {
		req := AdoptLHStateReq{State: st}
		for _, node := range b.Cfg.PlacementNodes {
			calls = append(calls, call{at: node, agent: LHAgentID(node), kind: KindLHAdopt, req: req})
		}
	}
	fanOutCalls(ctx, b.Cfg.callTimeout(), calls)
}

// toReplicas addresses kind with req to every configured replica but this
// HAgent.
func (b *HAgentBehavior) toReplicas(ctx *platform.Context, kind string, req any) []call {
	calls := make([]call, 0, len(b.Cfg.HAgentReplicas))
	for _, ref := range b.Cfg.HAgentReplicas {
		if ref.Agent != ctx.Self() || ref.Node != ctx.Node() {
			calls = append(calls, call{at: ref.Node, agent: ref.Agent, kind: kind, req: req})
		}
	}
	return calls
}

// DeployReplicas launches standby HAgents on the given nodes and returns
// their references; pass them in Config.HAgentReplicas (for the primary to
// push to) and Config.HAgentFallbacks (for LHAgents to fail over to) when
// deploying the mechanism. On a mid-loop failure every replica already
// launched is torn down again, so the call is all-or-nothing — no orphan
// standbys survive a partial deployment.
func DeployReplicas(cfg Config, initial StateDTO, nodes []*platform.Node) ([]HAgentRef, error) {
	refs := make([]HAgentRef, 0, len(nodes))
	for i, n := range nodes {
		ref := HAgentRef{
			Agent: ids.AgentID(fmt.Sprintf("%s-replica-%d", cfg.HAgent, i+1)),
			Node:  n.ID(),
		}
		replica := &HAgentBehavior{Cfg: cfg, InitialState: initial, Standby: true}
		if err := n.Launch(ref.Agent, replica); err != nil {
			for j := range refs {
				// Best effort: the node hosting an earlier replica may
				// itself have failed in the meantime.
				_ = nodes[j].Kill(refs[j].Agent)
			}
			return nil, fmt.Errorf("core: deploy replica %s: %w", ref.Agent, err)
		}
		refs = append(refs, ref)
	}
	return refs, nil
}
