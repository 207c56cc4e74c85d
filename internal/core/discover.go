package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/wire"
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
// matches nothing. The result is the caller's own: its agent ids share one
// string, copied out of the replies, and nothing else the discovery used
// outlives it (discoverCall).
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

	f := discoverPool.Get().(*discoverCall)
	defer f.release()
	f.req = DiscoverReq{Caps: q.Caps, Near: q.Near, Limit: perLeaf}
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
		version, err := c.leafSet(ctx, f, minVersion)
		if err != nil {
			endOp(sp, rpcs, err)
			return nil, err
		}
		heard = max(heard, version)
		stale := c.scatter(ctx, f, &heard)
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

	matches := f.merge(q)
	if !complete {
		endOp(sp, rpcs, ErrRetriesExhausted)
		return matches, fmt.Errorf("discover %v: %w", q.Caps, ErrRetriesExhausted)
	}
	sp.Annotate("matches", strconv.Itoa(len(matches)))
	endOp(sp, rpcs, nil)
	return matches, nil
}

// leafSet asks the local LHAgent for the scatter set, at least minVersion
// fresh, into f.leaves, and returns its version.
func (c *Client) leafSet(ctx context.Context, f *discoverCall, minVersion uint64) (uint64, error) {
	sp, ctx := c.childSpan(ctx, "leaves")
	f.ask = LeavesReq{MinVersion: minVersion}
	err := c.ask(ctx, KindLeaves, &f.ask, &f.leaves)
	sp.End(err)
	if err != nil {
		return 0, fmt.Errorf("discover: enumerate leaves: %w", err)
	}
	return f.leaves.HashVersion, nil
}

// scatter asks every leaf of f.leaves for its matches to f.req; the
// authoritative answers join f's gathered matches as they are decoded. It
// returns the number of leaves that did not answer authoritatively, and raises
// *heard to the newest hash version a leaf answered with.
func (c *Client) scatter(ctx context.Context, f *discoverCall, heard *uint64) int {
	leaves := f.leaves.Leaves
	f.answers, f.legs = sized(f.answers, len(leaves)), sized(f.legs, len(leaves))
	for i := range f.answers {
		f.answers[i].call = f
	}
	c.fanOut(ctx, "iagent.discover", KindDiscover, leaves, f.legs,
		func(int, *trace.ActiveSpan) any { return &f.req },
		func(i int) any { return &f.answers[i] })
	stale := 0
	for i, l := range f.legs {
		*heard = max(*heard, f.answers[i].version)
		if l.err != nil || f.answers[i].status != StatusOK {
			stale++
		}
	}
	return stale
}

// discoverCall is where a Discover keeps everything but its result: its
// requests, the scatter set, each leg's answer and outcome, and the matches
// gathered across rounds, each agent id copied out of its reply into ids as
// the reply is decoded, so that nothing views a reply past its call. Like a
// callFrame it is pooled, taken for one discovery and given back cleared,
// with the room it grew to.
type discoverCall struct {
	req     DiscoverReq
	ask     LeavesReq
	leaves  LeavesResp
	answers []leafAnswer
	legs    []leg
	// found is every authoritative match gathered, its agent id not yet set:
	// match i's id is ids[ends[i-1]:ends[i]] (from 0 for the first).
	found []Match
	ends  []int
	ids   []byte
}

var discoverPool = sync.Pool{New: func() any { return new(discoverCall) }}

// maxPooledMatches and maxPooledIDs bound the matches and the id bytes a
// pooled discoverCall keeps room for: a rare discovery of a great many agents
// is not worth holding on to.
const (
	maxPooledMatches = 1 << 12
	maxPooledIDs     = 64 << 10
)

func (f *discoverCall) release() {
	if cap(f.found) > maxPooledMatches || cap(f.ids) > maxPooledIDs {
		return
	}
	f.req, f.ask, f.leaves = DiscoverReq{}, LeavesReq{}, LeavesResp{}
	f.answers, f.legs, f.found = reuse(f.answers), reuse(f.legs), reuse(f.found)
	f.ends, f.ids = f.ends[:0], f.ids[:0]
	discoverPool.Put(f)
}

// merge returns the gathered matches ordered — near first, then agent id —
// and truncated to q.Limit, as a slice of the caller's own whose ids share one
// string. The leaves partition the id space, so an agent is found twice only
// across retry rounds, and the later round's answer wins.
func (f *discoverCall) merge(q Query) []Match {
	if len(f.found) == 0 {
		return nil
	}
	all, start := string(f.ids), 0
	for i, end := range f.ends {
		f.found[i].Agent = ids.AgentID(all[start:end])
		start = end
	}
	found := f.found
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
	return slices.Clone(matches)
}

// leafAnswer is where one leaf's DiscoverResp lands: its status and version,
// and, when it is authoritative, its matches, added to the call's gathered
// ones as they are read.
type leafAnswer struct {
	call    *discoverCall
	status  Status
	version uint64
}

// DecodeWire reads a DiscoverResp. A reply that fails to decode — trailing
// bytes included, which the caller would refuse only after DecodeWire
// returns — adds nothing.
func (a *leafAnswer) DecodeWire(d *wire.Dec) error {
	f := a.call
	had, bytes := len(f.found), len(f.ids)
	var err error
	a.status, a.version, err = readDiscoverResp(d, func(agent []byte, node platform.NodeID) {
		f.ids = append(f.ids, agent...)
		f.ends = append(f.ends, len(f.ids))
		f.found = append(f.found, Match{Node: node})
	})
	if err == nil {
		err = d.Done()
	}
	if err != nil || a.status != StatusOK {
		f.found, f.ends, f.ids = f.found[:had], f.ends[:had], f.ids[:bytes]
	}
	return err
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
