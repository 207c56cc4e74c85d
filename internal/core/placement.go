package core

import (
	"context"
	"fmt"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// This file implements the paper's first §7 extension: IAgent placement for
// locality — "the IAgents could move closer to the majority of the agents
// that they serve". IAgents are mobile agents, so relocation reuses the
// platform's ordinary migration; only the hash state's location directory
// needs coordinating, which the HAgent does by bumping the state version.
//
// Protocol:
//
//  1. The IAgent periodically histograms the nodes of its served agents.
//     If one node hosts at least PlacementMajority of them, differs from
//     the IAgent's current node, and the population is large enough to
//     matter, the IAgent asks the HAgent to relocate it.
//  2. The HAgent validates the request, updates Locations, bumps Ver, and
//     acknowledges. From this moment the directory points at the target
//     node even though the IAgent is still in transit; clients hitting the
//     gap get agent-not-found, refresh, and retry with backoff (§4.3
//     machinery, unchanged).
//  3. The IAgent snapshots its durable state and migrates.

// KindRequestRelocate asks the HAgent to move an IAgent's directory entry.
const KindRequestRelocate = "hash.request-relocate"

// RequestRelocateReq is sent by an IAgent that wants to move closer to its
// agents.
type RequestRelocateReq struct {
	IAgent      ids.AgentID
	From, To    platform.NodeID
	HashVersion uint64
}

// relocate serves a placement request on the HAgent.
func (b *HAgentBehavior) relocate(ctx *platform.Context, req RequestRelocateReq) (RehashResp, error) {
	if req.HashVersion < b.state.Ver || !b.state.Tree.Contains(string(req.IAgent)) {
		return RehashResp{Status: StatusIgnored, HashVersion: b.state.Ver}, nil
	}
	current, ok := b.state.Locations[req.IAgent]
	if !ok || current != req.From || req.To == "" || req.To == current {
		return RehashResp{Status: StatusIgnored, HashVersion: b.state.Ver}, nil
	}
	newState := &State{Ver: b.state.Ver + 1, Tree: b.state.Tree, Locations: copyLocations(b.state.Locations)}
	newState.Locations[req.IAgent] = req.To
	b.state = newState
	b.relocations++
	b.reg.Counter("agentloc_core_relocations_total").Inc()
	b.updateTreeGauges()
	b.persistState(ctx)
	ctx.Emit("rehash.relocate", fmt.Sprintf("%s: %s → %s, v%d", req.IAgent, req.From, req.To, newState.Ver))
	b.publish(ctx)
	return RehashResp{Status: StatusOK, HashVersion: b.state.Ver}, nil
}

// placementTarget inspects the served agents' nodes and returns the node
// the IAgent should move to, if any.
func (b *IAgentBehavior) placementTarget(current platform.NodeID) (platform.NodeID, bool) {
	hist := make(map[platform.NodeID]int)
	total := 0
	b.Leaf.table.Range(func(_ ids.AgentID, node platform.NodeID) bool {
		hist[node]++
		total++
		return true
	})
	if total < b.Cfg.PlacementMinAgents {
		return "", false
	}
	var best platform.NodeID
	bestCount := 0
	for node, count := range hist {
		if count > bestCount {
			best, bestCount = node, count
		}
	}
	if best == "" || best == current {
		return "", false
	}
	if float64(bestCount) < b.Cfg.PlacementMajority*float64(total) {
		return "", false
	}
	return best, true
}

// maybeRelocate runs one placement round from the IAgent's Run loop. It
// returns true if the agent migrated (the caller must return so the
// platform can resume Run at the destination).
func (b *IAgentBehavior) maybeRelocate(ctx *platform.Context) (bool, error) {
	target, ok := b.placementTarget(ctx.Node())
	if !ok {
		return false, nil
	}
	version := b.state.Load().Version()
	req := RequestRelocateReq{
		IAgent:      ctx.Self(),
		From:        ctx.Node(),
		To:          target,
		HashVersion: version,
	}
	var resp RehashResp
	err := callWithin(context.Background(), b.Cfg.callTimeout(), CtxCaller{ctx}, b.Cfg.HAgentNode, b.Cfg.HAgent, KindRequestRelocate, req, &resp)
	if err != nil || resp.Status != StatusOK {
		return false, err // declined or unreachable; retry next round
	}

	// Bring the local view and the durable snapshots up to date before
	// migrating: the behaviour is re-hydrated from the exported fields at
	// the destination. A fresh State value replaces the old one — readers
	// hold the previous pointer, which stays immutable.
	b.mu.Lock()
	cur := b.state.Load()
	ns := &State{Ver: resp.HashVersion, Tree: cur.Tree, Locations: copyLocations(cur.Locations)}
	ns.Locations[ctx.Self()] = target
	b.installState(ctx.Self(), ns, "")
	b.StateSnapshot = ns.DTO()
	b.mu.Unlock()

	// Not callWithin: a Move is no call through a Caller, and it cancels
	// ctx.Lifetime() on its way, so its bound cannot hang off that.
	mctx, mcancel := context.WithTimeout(context.Background(), b.Cfg.callTimeout())
	defer mcancel()
	if err := ctx.Move(mctx, target); err != nil {
		return false, fmt.Errorf("IAgent %s: relocate to %s: %w", ctx.Self(), target, err)
	}
	return true, nil
}
