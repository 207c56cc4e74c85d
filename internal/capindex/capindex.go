// Package capindex provides the capability index an IAgent keeps beside its
// location table: a secondary map from capability tag → set of agent ids,
// plus the inverse (agent → its canonical tag list). The index answers
// "which of my agents can do C?" — the location table then supplies each
// match's current node, so a discovery reply carries a locality hint
// without a second index.
//
// The index is deliberately a sibling of, not an extension to, the
// location table: capability payloads are non-uniform (zero to dozens of
// tags per agent, with heavy tag sharing) and are mutated through the same
// register/update/deregister/handoff paths as locations but at a much
// lower rate. Keeping them in their own structure keeps the locate hot
// path untouched. An IAgent's durable form and its handoffs carry each
// agent's set in its record; serialize.go decodes the frame older builds
// wrote the whole index as.
package capindex

import (
	"slices"
	"sort"
	"sync"

	"agentloc/internal/ids"
)

// Index is a concurrency-safe bidirectional capability index.
type Index struct {
	mu sync.RWMutex
	// byCap maps a capability tag to the set of agents advertising it.
	byCap map[string]map[ids.AgentID]struct{}
	// byAgent maps an agent to its canonical (sorted, deduplicated) tags.
	// Agents with no capabilities have no entry at all.
	byAgent map[ids.AgentID][]string
}

// New returns an empty index.
func New() *Index {
	return &Index{
		byCap:   make(map[string]map[ids.AgentID]struct{}),
		byAgent: make(map[ids.AgentID][]string),
	}
}

// Normalize returns the canonical form of a capability set: sorted, empty
// tags dropped, duplicates collapsed. A nil or all-empty input normalizes
// to nil, which callers treat as "no capability change".
func Normalize(caps []string) []string {
	if len(caps) == 0 {
		return nil
	}
	out := make([]string, 0, len(caps))
	for _, c := range caps {
		if c != "" {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Strings(out)
	j := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[j-1] {
			out[j] = out[i]
			j++
		}
	}
	return out[:j]
}

// Set replaces the agent's capability set with the normalized form of
// caps. An empty normalized set removes the agent entirely (equivalent to
// Remove), so Set(agent, nil) and a deregister converge on the same state.
func (x *Index) Set(agent ids.AgentID, caps []string) {
	norm := Normalize(caps)
	x.mu.Lock()
	x.setLocked(agent, norm)
	x.mu.Unlock()
}

// setLocked installs an already-normalized tag list. Caller holds mu.
func (x *Index) setLocked(agent ids.AgentID, norm []string) {
	for _, c := range x.byAgent[agent] {
		if set := x.byCap[c]; set != nil {
			delete(set, agent)
			if len(set) == 0 {
				delete(x.byCap, c)
			}
		}
	}
	if len(norm) == 0 {
		delete(x.byAgent, agent)
		return
	}
	x.byAgent[agent] = norm
	for _, c := range norm {
		set := x.byCap[c]
		if set == nil {
			set = make(map[ids.AgentID]struct{})
			x.byCap[c] = set
		}
		set[agent] = struct{}{}
	}
}

// Remove forgets an agent's capabilities, reporting whether any were set.
func (x *Index) Remove(agent ids.AgentID) bool {
	x.mu.Lock()
	_, existed := x.byAgent[agent]
	x.setLocked(agent, nil)
	x.mu.Unlock()
	return existed
}

// CapsOf returns the agent's canonical tag list (nil if none). The list is
// the index's own and callers must not modify it; it stays valid after later
// mutations, which replace an agent's list and never write into one.
func (x *Index) CapsOf(agent ids.AgentID) []string {
	x.mu.RLock()
	caps := x.byAgent[agent]
	x.mu.RUnlock()
	return caps
}

// Match returns the agents advertising every one of the given tags
// (AND-intersection), allocated once at its exact size (AppendMatch).
func (x *Index) Match(caps []string) []ids.AgentID {
	buf := matchScratch.Get().(*[]ids.AgentID)
	scratch := x.AppendMatch((*buf)[:0], caps)
	var out []ids.AgentID
	if len(scratch) > 0 {
		out = slices.Clone(scratch)
	}
	clear(scratch)
	*buf = scratch[:0]
	matchScratch.Put(buf)
	return out
}

// matchScratch holds the space Match gathers intersections in.
var matchScratch = sync.Pool{New: func() any { return new([]ids.AgentID) }}

// AppendMatch appends to dst the agents advertising every one of the given
// tags (AND-intersection) and returns the extended slice. Empty tags are
// ignored and a repeated one costs only a second look, so caps is read as it
// comes, without normalizing a copy; a query with no tag left matches
// nothing — "all agents" is a location-table scan, not a capability query.
// Intersection walks the rarest tag's set, so a query with one selective tag
// stays cheap regardless of how common the others are. The order of what is
// appended is unspecified.
func (x *Index) AppendMatch(dst []ids.AgentID, caps []string) []ids.AgentID {
	x.mu.RLock()
	defer x.mu.RUnlock()
	rarest := -1
	for i, c := range caps {
		if c == "" {
			continue
		}
		set, ok := x.byCap[c]
		if !ok {
			return dst
		}
		if rarest < 0 || len(set) < len(x.byCap[caps[rarest]]) {
			rarest = i
		}
	}
	if rarest < 0 {
		return dst
	}
outer:
	for agent := range x.byCap[caps[rarest]] {
		for i, c := range caps {
			if i == rarest || c == "" {
				continue
			}
			if _, ok := x.byCap[c][agent]; !ok {
				continue outer
			}
		}
		dst = append(dst, agent)
	}
	return dst
}

// Len returns the number of agents with at least one capability.
func (x *Index) Len() int {
	x.mu.RLock()
	n := len(x.byAgent)
	x.mu.RUnlock()
	return n
}

// Snapshot copies the agent → tags map. Tag slices are copied, so the
// result is safe to mutate and to hand to another goroutine.
func (x *Index) Snapshot() map[ids.AgentID][]string {
	x.mu.RLock()
	out := make(map[ids.AgentID][]string, len(x.byAgent))
	for agent, caps := range x.byAgent {
		out[agent] = append(make([]string, 0, len(caps)), caps...)
	}
	x.mu.RUnlock()
	return out
}

// Adopt merges a snapshot in: every listed agent's set is replaced (an
// explicit empty list removes it). Deserialize builds its index with it.
func (x *Index) Adopt(m map[ids.AgentID][]string) {
	x.mu.Lock()
	for agent, caps := range m {
		x.setLocked(agent, Normalize(caps))
	}
	x.mu.Unlock()
}
