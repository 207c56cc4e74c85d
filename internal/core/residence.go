package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// This file implements the node-centric update extension: residence
// handles. The paper's §4.3 protocol charges one location update per agent
// per move, so a node carrying N co-resident agents generates N updates
// when it migrates — UpdateBatcher only amortizes the RPCs, not the work.
// Binding agents to a residence handle (ids.ResidenceID) makes the work
// itself O(1) per responsible IAgent: the IAgent stores agent → handle and
// handle → address, and a group migration re-points the handle with a
// single KindResidenceMove RPC that covers every bound member it serves.
//
// The two halves:
//
//   - ResidenceTable is the IAgent-side record: bindings (agent → handle)
//     and addresses (handle → node), resolved server-side during locate so
//     clients keep receiving (and caching) final addresses.
//   - ResidenceGroup is the client-side view of one co-migrating group: it
//     tracks which IAgent serves each member and re-points the handle with
//     one RPC per distinct IAgent on every move, falling back to per-member
//     bound updates (the §4.3 path) whenever an IAgent's answer shows the
//     grouping went stale — a rehash, a takeover, or a fresh IAgent that
//     has never heard of the handle.

// ResidenceTable is the per-IAgent residence record: which served agents
// are bound to which handle, and where each handle currently is. It is safe
// for concurrent use; its reads take only a read lock so the locate fast
// path stays concurrent. The zero value is not usable — call
// NewResidenceTable (ensureRuntime does). Only leafState.apply writes it.
type ResidenceTable struct {
	mu sync.RWMutex
	// addr maps each known handle to the group's current node.
	addr map[ids.ResidenceID]platform.NodeID
	// bound maps bound agents to their handle.
	bound map[ids.AgentID]ids.ResidenceID
	// members is the inverse of bound, so a residence move can touch every
	// affected agent without scanning all bindings.
	members map[ids.ResidenceID]map[ids.AgentID]struct{}
}

// NewResidenceTable returns an empty table.
func NewResidenceTable() *ResidenceTable {
	return &ResidenceTable{
		addr:    make(map[ids.ResidenceID]platform.NodeID),
		bound:   make(map[ids.AgentID]ids.ResidenceID),
		members: make(map[ids.ResidenceID]map[ids.AgentID]struct{}),
	}
}

// memberSet returns (allocating if needed) the member set of a handle.
// Callers hold mu.
func (t *ResidenceTable) memberSet(r ids.ResidenceID) map[ids.AgentID]struct{} {
	s, ok := t.members[r]
	if !ok {
		s = make(map[ids.AgentID]struct{})
		t.members[r] = s
	}
	return s
}

// Bind binds an agent to a handle at the given address, moving it out of
// any previous handle. The handle's address becomes node — a bound update is
// the freshest word on where the group is — unless keep is set and the table
// already holds one: a handed-off binding, assembled from the sender's
// possibly older view, never rolls back an address this table keeps current.
func (t *ResidenceTable) Bind(agent ids.AgentID, r ids.ResidenceID, node platform.NodeID, keep bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.bound[agent]; ok && prev != r {
		t.dropMember(prev, agent)
	}
	t.bound[agent] = r
	t.memberSet(r)[agent] = struct{}{}
	if _, held := t.addr[r]; !keep || !held {
		t.addr[r] = node
	}
}

// Unbind removes an agent's binding (an individually-reported move or a
// deregistration); memberless handles are forgotten. It reports whether the
// agent was bound.
func (t *ResidenceTable) Unbind(agent ids.AgentID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.bound[agent]
	if !ok {
		return false
	}
	delete(t.bound, agent)
	t.dropMember(r, agent)
	return true
}

// dropMember removes agent from r's member set, pruning empty handles.
// Callers hold mu.
func (t *ResidenceTable) dropMember(r ids.ResidenceID, agent ids.AgentID) {
	s := t.members[r]
	delete(s, agent)
	if len(s) == 0 {
		delete(t.members, r)
		delete(t.addr, r)
	}
}

// Binding returns the bound agent's handle and its current address — the
// handle's address. Unbound agents (and bound agents whose handle lost its
// address, which cannot happen through this API) report false, sending the
// caller to the direct location table.
func (t *ResidenceTable) Binding(agent ids.AgentID) (ids.ResidenceID, platform.NodeID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.bound[agent]
	if !ok {
		return "", "", false
	}
	node, ok := t.addr[r]
	return r, node, ok
}

// ResolveBytes returns the address of a bound agent held as bytes; the map is
// probed without building a string.
func (t *ResidenceTable) ResolveBytes(agent []byte) (platform.NodeID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.bound[ids.AgentID(agent)]
	if !ok {
		return "", false
	}
	node, ok := t.addr[r]
	return node, ok
}

// Address returns a handle's current address; unknown handles report false.
func (t *ResidenceTable) Address(r ids.ResidenceID) (platform.NodeID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	node, ok := t.addr[r]
	return node, ok
}

// Members returns the bound members of a handle (a copy). Unknown handles
// report ok=false: the caller falls back to per-member bound updates, which
// re-create the record.
func (t *ResidenceTable) Members(r ids.ResidenceID) ([]ids.AgentID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, ok := t.addr[r]; !ok {
		return nil, false
	}
	out := make([]ids.AgentID, 0, len(t.members[r]))
	for a := range t.members[r] {
		out = append(out, a)
	}
	return out, true
}

// Len reports the number of known handles.
func (t *ResidenceTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.addr)
}

// ---------------------------------------------------------------------------
// Client side.

// ResidenceGroup is the client-side handle of one co-migrating group: a
// swarm of agents that report a shared residence and move as one. Join and
// Leave bind and unbind individual members (each a normal §4.3 location
// report, batchable as usual); MoveTo re-points the handle after a group
// migration with one KindResidenceMove RPC per distinct responsible IAgent
// — for a swarm hashed to one hot leaf that is a single RPC regardless of
// the swarm's size.
//
// A group is safe for concurrent use, but a single migration should be
// reported by one caller — concurrent MoveTo calls for the same physical
// move would just repeat the work.
type ResidenceGroup struct {
	c  *Client
	id ids.ResidenceID

	mu      sync.Mutex
	members map[ids.AgentID]Assignment
}

// ResidenceGroup returns a client-side view of the given handle. Groups
// share the client's cache, batcher, metrics, and retry configuration.
func (c *Client) ResidenceGroup(id ids.ResidenceID) *ResidenceGroup {
	return &ResidenceGroup{c: c, id: id, members: make(map[ids.AgentID]Assignment)}
}

// ID returns the group's residence handle.
func (g *ResidenceGroup) ID() ids.ResidenceID { return g.id }

// Members returns the tracked member ids, sorted for determinism.
func (g *ResidenceGroup) Members() []ids.AgentID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Sorted(maps.Keys(g.members))
}

// Join binds a member to the group at the caller's node: a bound location
// update through the usual refresh-and-retry loop. The member must already
// be registered.
func (g *ResidenceGroup) Join(ctx context.Context, agent ids.AgentID) error {
	g.mu.Lock()
	cached := g.members[agent]
	g.mu.Unlock()
	assign, err := g.c.MoveNotifyBound(ctx, agent, g.id, cached)
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.members[agent] = assign
	g.mu.Unlock()
	return nil
}

// Leave unbinds a member: a plain (unbound) location update, after which
// the member reports its own moves again.
func (g *ResidenceGroup) Leave(ctx context.Context, agent ids.AgentID) error {
	g.mu.Lock()
	cached := g.members[agent]
	delete(g.members, agent)
	g.mu.Unlock()
	_, err := g.c.MoveNotify(ctx, agent, cached)
	return err
}

// Move reports a group migration to the caller's own node; see MoveTo.
func (g *ResidenceGroup) Move(ctx context.Context) error {
	return g.MoveTo(ctx, g.c.caller.LocalNode())
}

// MoveTo re-points the group's handle at node: one KindResidenceMove RPC
// per distinct responsible IAgent. An IAgent whose answer shows the
// grouping went stale — unreachable, not-responsible, unknown handle, or
// fewer bound members than expected (some were handed off by a rehash) —
// is healed by falling back to per-member bound updates, which re-resolve
// each member's IAgent and re-create the record there.
func (g *ResidenceGroup) MoveTo(ctx context.Context, node platform.NodeID) error {
	g.mu.Lock()
	byDest := make(map[Assignment][]ids.AgentID)
	for a, assign := range g.members {
		key := Assignment{IAgent: assign.IAgent, Node: assign.Node}
		byDest[key] = append(byDest[key], a)
	}
	g.mu.Unlock()
	if len(byDest) == 0 {
		return nil
	}

	sp, ctx, rpcs := g.c.startOp(ctx, "residence.move")
	sp.Annotate("residence", string(g.id))
	var firstErr error
	for dest, members := range byDest {
		if err := g.moveDest(ctx, dest, node, members); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	endOp(sp, rpcs, firstErr)
	return firstErr
}

// moveDest re-points the handle at one destination IAgent, falling back to
// per-member bound updates when the fast path cannot vouch for every
// member.
func (g *ResidenceGroup) moveDest(ctx context.Context, dest Assignment, node platform.NodeID, members []ids.AgentID) error {
	req := ResidenceMoveReq{Residence: g.id, Node: node}
	var resp ResidenceMoveResp
	csp, cctx := g.c.childSpan(ctx, "iagent.residence-move")
	csp.Annotate("dest", string(dest.IAgent))
	err := g.c.call(cctx, dest.Node, dest.IAgent, KindResidenceMove, req, &resp)
	csp.End(err)
	if err == nil && resp.Status == StatusOK && resp.Bound >= len(members) {
		// The handle now covers every member this IAgent serves. The version
		// in the ack fences the location cache like any other reply, and the
		// members' cached assignments learn the observed version. The
		// reporting client reads its own write: it forgets where it last
		// saw each member.
		g.c.cache.fence(resp.HashVersion)
		g.mu.Lock()
		for _, a := range members {
			g.c.cache.invalidate(a)
			assign := g.members[a]
			if resp.HashVersion > assign.HashVersion {
				assign.HashVersion = resp.HashVersion
			}
			g.members[a] = assign
		}
		g.mu.Unlock()
		return nil
	}
	g.c.resFallback.Inc()
	csp2, fctx := g.c.childSpan(ctx, "residence.rebind")
	csp2.Annotate("members", strconv.Itoa(len(members)))
	var firstErr error
	for _, a := range members {
		// A zero cached assignment forces a fresh whois, so the rebind lands
		// on whichever IAgent serves the member now.
		assign, err := g.c.report(fctx, KindUpdate, a, g.id, nil, node, Assignment{})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("residence %s: rebind %s: %w", g.id, a, err)
			}
			continue
		}
		g.mu.Lock()
		g.members[a] = assign
		g.mu.Unlock()
	}
	csp2.End(firstErr)
	return firstErr
}
