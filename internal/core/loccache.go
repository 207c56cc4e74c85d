package core

import (
	"sync"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
)

// defaultLocCacheSize caps cached locations when Config.LocateCacheSize is
// zero.
const defaultLocCacheSize = 4096

// locCache is the client-side location cache: agent → (node, hash version,
// time stored). Correctness rests on two rules, both enforced here and both
// server-authoritative:
//
//   - Version fence: the cache remembers the highest hash version any reply
//     has carried; entries cached under an older version are never served.
//     A rehash therefore invalidates the cache the moment the client hears
//     the new version from anyone — IAgent, LHAgent, or batch ack.
//   - TTL: a fresh-versioned entry is still only served within
//     LocateCacheTTL of being stored, bounding how long a cached node can
//     lag a mobile agent that moved without the client hearing about it.
//
// Any not-here or stale-version reply from the responsible IAgent drops the
// entry and the caller falls through to the §4.3 refresh-and-retry loop;
// the cache only ever short-circuits the happy path.
//
// Which entry a full cache gives up is SIEVE (Zhang et al., NSDI '24): the
// slots form a FIFO queue, a hit sets its slot's visited bit, and eviction
// walks a hand from the oldest slot toward the newest, clearing visited bits,
// and takes the first unvisited slot. Popular agents keep getting revisited
// and stay; one-off lookups leave after one pass of the hand. The slot array
// grows on demand up to the cap, and once it is warm neither get nor put
// allocates.
type locCache struct {
	ttl time.Duration
	max int
	clk clock.Clock

	// Hit/miss accounting and the age of the entries hits serve; nil-safe
	// no-ops without a registry.
	hits, misses, expired, fenced *metrics.Counter
	age                           *metrics.Histogram

	mu     sync.Mutex
	minVer uint64 // highest hash version observed; older entries are dead
	index  map[ids.AgentID]int32
	slots  []locSlot
	// oldest and newest end the queue of live slots, hand is the next slot
	// eviction inspects (noSlot: start at oldest), and free heads the list of
	// unlinked slots, threaded through next. All are slot indices.
	oldest, newest, hand, free int32
}

// noSlot ends a slot chain.
const noSlot int32 = -1

// locSlot is one cached location and its links in the queue: prev is the
// next older live slot, next the next newer one (or, on the free list, the
// next free slot).
type locSlot struct {
	agent      ids.AgentID
	node       platform.NodeID
	version    uint64
	stored     time.Time
	prev, next int32
	visited    bool
}

// cacheAgeBuckets spans a millisecond to about 70 minutes, the TTLs a client
// cache is run with.
var cacheAgeBuckets = metrics.ExponentialBuckets(0.001, 4, 12)

// newLocCache builds a cache; returns nil (disabled) when ttl is zero.
func newLocCache(cfg Config, clk clock.Clock, reg *metrics.Registry) *locCache {
	if cfg.LocateCacheTTL <= 0 {
		return nil
	}
	max := cfg.LocateCacheSize
	if max <= 0 {
		max = defaultLocCacheSize
	}
	reg.Describe("agentloc_core_client_cache_total", "Client location-cache lookups, by result.")
	reg.Describe("agentloc_core_client_cache_age_seconds", "Age of the client location-cache entry each hit served.")
	return &locCache{
		ttl:     cfg.LocateCacheTTL,
		max:     max,
		clk:     clk,
		hits:    reg.Counter("agentloc_core_client_cache_total", "result", "hit"),
		misses:  reg.Counter("agentloc_core_client_cache_total", "result", "miss"),
		expired: reg.Counter("agentloc_core_client_cache_total", "result", "expired"),
		fenced:  reg.Counter("agentloc_core_client_cache_total", "result", "fenced"),
		age:     reg.Histogram("agentloc_core_client_cache_age_seconds", cacheAgeBuckets),
		index:   make(map[ids.AgentID]int32),
		oldest:  noSlot,
		newest:  noSlot,
		hand:    noSlot,
		free:    noSlot,
	}
}

// get returns the cached node of an agent if the entry is both
// version-fresh and within its TTL. Nil receivers (cache disabled) miss.
func (c *locCache) get(agent ids.AgentID) (platform.NodeID, bool) {
	if c == nil {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[agent]
	if !ok {
		c.misses.Inc()
		return "", false
	}
	s := &c.slots[i]
	if s.version < c.minVer {
		c.remove(i)
		c.fenced.Inc()
		return "", false
	}
	age := c.clk.Now().Sub(s.stored)
	if age > c.ttl {
		c.remove(i)
		c.expired.Inc()
		return "", false
	}
	s.visited = true
	c.hits.Inc()
	c.age.Observe(age.Seconds())
	return s.node, true
}

// put stores a located node under the hash version that vouched for it.
func (c *locCache) put(agent ids.AgentID, node platform.NodeID, version uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if version < c.minVer {
		return // already fenced off; do not resurrect a stale answer
	}
	now := c.clk.Now()
	if i, ok := c.index[agent]; ok {
		// A resident keeps its place in the queue and its visited bit.
		s := &c.slots[i]
		s.node, s.version, s.stored = node, version, now
		return
	}
	var i int32
	switch {
	case c.free != noSlot:
		i, c.free = c.free, c.slots[c.free].next
	case len(c.slots) < c.max:
		i = int32(len(c.slots))
		c.slots = append(c.slots, locSlot{})
	default:
		i = c.evict()
	}
	c.slots[i] = locSlot{agent: agent, node: node, version: version, stored: now, prev: c.newest, next: noSlot}
	if c.newest != noSlot {
		c.slots[c.newest].next = i
	} else {
		c.oldest = i
	}
	c.newest = i
	c.index[agent] = i
}

// evict unlinks the slot SIEVE gives up and returns it for reuse: the hand
// walks toward the newest slot, clearing visited bits, and stops at the first
// slot not visited since the hand last passed it. The cache must be full.
func (c *locCache) evict() int32 {
	i := c.hand
	if i == noSlot {
		i = c.oldest
	}
	for c.slots[i].visited {
		c.slots[i].visited = false
		if i = c.slots[i].next; i == noSlot {
			i = c.oldest
		}
	}
	c.hand = i // unlink moves it on to the victim's newer neighbour
	delete(c.index, c.slots[i].agent)
	c.unlink(i)
	return i
}

// unlink takes a live slot out of the queue, moving the hand past it.
func (c *locCache) unlink(i int32) {
	s := &c.slots[i]
	if c.hand == i {
		c.hand = s.next
	}
	if s.prev != noSlot {
		c.slots[s.prev].next = s.next
	} else {
		c.oldest = s.next
	}
	if s.next != noSlot {
		c.slots[s.next].prev = s.prev
	} else {
		c.newest = s.prev
	}
}

// remove drops a live slot's entry and puts the slot on the free list,
// clearing it so the cache holds no reference to the dropped ids.
func (c *locCache) remove(i int32) {
	delete(c.index, c.slots[i].agent)
	c.unlink(i)
	c.slots[i] = locSlot{next: c.free}
	c.free = i
}

// invalidate drops one agent's entry (not-here reply, failed call to the
// cached node, an acknowledged report of the agent's own, or
// application-level miss).
func (c *locCache) invalidate(agent ids.AgentID) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if i, ok := c.index[agent]; ok {
		c.remove(i)
	}
	c.mu.Unlock()
}

// fence raises the minimum acceptable hash version. Entries cached under
// older versions die lazily at their next lookup.
func (c *locCache) fence(version uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if version > c.minVer {
		c.minVer = version
	}
	c.mu.Unlock()
}
