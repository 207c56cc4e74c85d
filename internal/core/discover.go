package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
)

// This file implements the client side of the capability-discovery tier: a
// scatter-gather over the responsible leaves. Exact location stays a
// single-IAgent question (the agent's id hashes to one leaf), but "which
// agents can do C?" has no such home — matching agents hash everywhere — so
// a discovery query must visit every leaf. The LHAgent's cached hash copy
// supplies the scatter set (KindLeaves), each leaf answers from its own
// capability index (KindDiscover), and the gather merges with a locality
// preference. Staleness follows the §4.3 rule: a leaf that answers
// not-responsible (or is gone) bumps the demanded hash version and the
// scatter re-enumerates, so discovery converges across splits, merges and
// takeovers exactly like locate does.

// Query selects agents by capability. Caps is an AND-set: a match must
// advertise every listed tag. Near, when non-empty, ranks matches currently
// at that node first — "find me an idle OCR agent, preferably here". Limit,
// when positive, caps the merged result (and the per-leaf answers).
type Query struct {
	Caps  []string
	Near  platform.NodeID
	Limit int
}

// Match is one discovery result: a matching agent and the node its leaf
// recorded for it — a locality hint as fresh as any Locate answer.
type Match struct {
	Agent ids.AgentID
	Node  platform.NodeID
}

// discoverPerLeafLimit caps the matches requested from each leaf when the
// query itself sets no limit: enough to merge a meaningful Near-preference
// ranking without shipping a leaf's whole index.
const discoverPerLeafLimit = 256

// Discover finds agents advertising every capability in q.Caps by fanning
// the query out across the responsible leaves (every leaf's frame in flight
// together, see Client.fanOut) and merging the per-leaf answers: matches at
// q.Near first, then by agent id, truncated to q.Limit. An empty q.Caps
// matches nothing. A match's Agent shares the bytes of the leaf's reply.
//
// Like every client operation it tolerates a stale hash copy: leaves that
// moved, merged or answered not-responsible trigger a refresh of the local
// copy and a re-scatter, with matches deduplicated across rounds. It returns
// ErrRetriesExhausted if some slice of the id space never answered — the
// matches gathered so far are returned alongside, explicitly partial.
func (c *Client) Discover(ctx context.Context, q Query) ([]Match, error) {
	sp, ctx, rpcs := c.startOp(ctx, "discover")
	if len(q.Caps) == 0 {
		endOp(sp, rpcs, nil)
		return nil, nil
	}
	perLeaf := discoverPerLeafLimit
	if q.Limit > 0 && q.Limit < perLeaf {
		perLeaf = q.Limit
	}

	req := DiscoverReq{Caps: q.Caps, Near: q.Near, Limit: perLeaf}
	var found []Match
	// minVersion is the copy the next round demands; heard, the newest hash
	// version the LHAgent or a leaf has actually answered with. Only heard
	// fences the cache: a demanded version may never exist.
	var minVersion, heard uint64
	complete := false
	for attempt := 0; attempt < maxProtocolRetries && !complete; attempt++ {
		if attempt > 0 {
			c.ops.discover.retries.Inc()
		}
		if err := c.backoff(ctx, attempt); err != nil {
			endOp(sp, rpcs, err)
			return nil, err
		}
		leaves, version, err := c.leafSet(ctx, minVersion)
		if err != nil {
			endOp(sp, rpcs, err)
			return nil, err
		}
		heard = max(heard, version)
		var stale int
		found, stale = c.scatter(ctx, leaves, &req, &heard, found)
		switch {
		case stale == 0 && heard == version:
			// Every leaf answered at the version the scatter set was drawn
			// from: the id space was covered in full.
			complete = true
		case stale > 0 && heard == version:
			// Some slice of the id space did not answer under this leaf set
			// and nobody named a newer version; demand a strictly newer copy
			// before re-scattering, so a leaf that is simply down (not
			// rehashed away) cannot spin us.
			minVersion = version + 1
		default:
			// A leaf answered under a newer hash version than the scatter
			// set: a split may have moved some of its agents to a leaf this
			// round never visited. Demand the newer copy; re-enumerate and
			// re-scatter.
			minVersion = heard
		}
	}
	c.cache.fence(heard)

	matches := mergeMatches(found, q)
	if !complete {
		endOp(sp, rpcs, ErrRetriesExhausted)
		return matches, fmt.Errorf("discover %v: %w", q.Caps, ErrRetriesExhausted)
	}
	sp.Annotate("matches", strconv.Itoa(len(matches)))
	endOp(sp, rpcs, nil)
	return matches, nil
}

// leafSet asks the local LHAgent for the scatter set, at least minVersion
// fresh.
func (c *Client) leafSet(ctx context.Context, minVersion uint64) ([]LeafRef, uint64, error) {
	sp, ctx := c.childSpan(ctx, "leaves")
	var resp LeavesResp
	err := c.ask(ctx, KindLeaves, &LeavesReq{MinVersion: minVersion}, &resp)
	sp.End(err)
	if err != nil {
		return nil, 0, fmt.Errorf("discover: enumerate leaves: %w", err)
	}
	return resp.Leaves, resp.HashVersion, nil
}

// scatter asks every leaf for its matches to req and appends the
// authoritative answers to found. It returns found and the number of leaves
// that did not answer authoritatively, and raises *heard to the newest hash
// version a leaf answered with.
func (c *Client) scatter(ctx context.Context, leaves []LeafRef, req *DiscoverReq, heard *uint64, found []Match) ([]Match, int) {
	resps := make([]DiscoverResp, len(leaves))
	legs := c.fanOut(ctx, "iagent.discover", KindDiscover, leaves,
		func(int, *trace.ActiveSpan) any { return req },
		func(i int) any { return &resps[i] })
	stale, n := 0, 0
	for i, l := range legs {
		*heard = max(*heard, resps[i].HashVersion)
		if l.err != nil || resps[i].Status != StatusOK {
			stale++
			resps[i].Matches = nil
		}
		n += len(resps[i].Matches)
	}
	found = slices.Grow(found, n)
	for _, r := range resps {
		for _, m := range r.Matches {
			found = append(found, Match(m))
		}
	}
	return found, stale
}

// mergeMatches orders the gathered matches — q.Near first, then agent id —
// and truncates to q.Limit. The leaves partition the id space, so an agent
// is found twice only across retry rounds, and the later round's answer
// wins.
func mergeMatches(found []Match, q Query) []Match {
	slices.SortStableFunc(found, func(a, b Match) int { return cmp.Compare(a.Agent, b.Agent) })
	matches := found[:0]
	for i, m := range found {
		if i+1 == len(found) || found[i+1].Agent != m.Agent {
			matches = append(matches, m)
		}
	}
	if q.Near != "" {
		slices.SortFunc(matches, nearFirst[Match](q.Near))
	}
	if q.Limit > 0 && len(matches) > q.Limit {
		matches = matches[:q.Limit]
	}
	return matches
}

// nearFirst is the order of discovery matches, in a leaf's answer and in the
// merged result: those at near first (when near is set), then by agent id.
func nearFirst[M Match | DiscoverMatch](near platform.NodeID) func(M, M) int {
	return func(x, y M) int {
		a, b := Match(x), Match(y)
		if near != "" && (a.Node == near) != (b.Node == near) {
			if a.Node == near {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Agent, b.Agent)
	}
}
