package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/raceflag"
)

func TestLocCacheCapacityEviction(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	const max = 4
	cache := newLocCache(Config{LocateCacheTTL: time.Minute, LocateCacheSize: max}, fake, nil)

	for i := 0; i < 3*max; i++ {
		cache.put(ids.AgentID(fmt.Sprintf("cap-%d", i)), "node-0", 1)
	}
	cache.mu.Lock()
	n := len(cache.index)
	cache.mu.Unlock()
	if n > max {
		t.Fatalf("cache holds %d entries, capacity is %d", n, max)
	}

	// Re-putting a resident agent must not evict a bystander to make room.
	cache.mu.Lock()
	var resident ids.AgentID
	for a := range cache.index {
		resident = a
		break
	}
	before := len(cache.index)
	cache.mu.Unlock()
	cache.put(resident, "node-1", 1)
	cache.mu.Lock()
	after := len(cache.index)
	cache.mu.Unlock()
	if after != before {
		t.Errorf("re-put of a resident entry changed the population %d -> %d", before, after)
	}
	if n, ok := cache.get(resident); !ok || n != "node-1" {
		t.Errorf("resident entry after re-put = %s, %v", n, ok)
	}
}

// TestLocCacheFenceNeverRollsBack pins the monotonicity the batch path
// leans on: one leaf replying with an older hash version than another must
// not lower the fence, and entries under the high-water mark stay dead.
func TestLocCacheFenceNeverRollsBack(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	cache := newLocCache(Config{LocateCacheTTL: time.Minute}, fake, nil)

	cache.fence(5)
	cache.fence(3) // a lagging leaf's reply; must be a no-op

	cache.put("stale", "node-0", 4)
	if node, ok := cache.get("stale"); ok {
		t.Errorf("entry under the fence served %s after a lower fence call", node)
	}
	cache.put("fresh", "node-1", 5)
	if node, ok := cache.get("fresh"); !ok || node != "node-1" {
		t.Errorf("at-fence entry = %s, %v; want node-1 served", node, ok)
	}
}

// TestLocCacheConcurrentPutFenceGet storms one small cache from many
// goroutines mixing every mutation the client can issue. Run under -race
// this is the memory-safety check the ISSUE asks for; the invariants
// asserted afterwards are the capacity bound and the version fence.
func TestLocCacheConcurrentPutFenceGet(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	const max = 8
	cache := newLocCache(Config{LocateCacheTTL: time.Minute, LocateCacheSize: max}, fake, nil)

	const (
		workers = 8
		rounds  = 500
		agents  = 32
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := ids.AgentID(fmt.Sprintf("storm-%d", (w*rounds+r)%agents))
				switch r % 4 {
				case 0:
					cache.put(a, platform.NodeID(fmt.Sprintf("node-%d", w)), uint64(r%8))
				case 1:
					cache.get(a)
				case 2:
					cache.invalidate(a)
				case 3:
					cache.fence(uint64(r % 8))
				}
			}
		}(w)
	}
	wg.Wait()

	cache.mu.Lock()
	n := len(cache.index)
	cache.mu.Unlock()
	if n > max {
		t.Errorf("cache holds %d entries after the storm, capacity is %d", n, max)
	}

	// The fence must hold after the dust settles: nothing cached under an
	// older version may ever be served again, and newer puts still land.
	cache.fence(100)
	cache.put("late-stale", "node-x", 99)
	if _, ok := cache.get("late-stale"); ok {
		t.Error("entry cached under a fenced-off version was served")
	}
	cache.put("late-fresh", "node-y", 100)
	if n, ok := cache.get("late-fresh"); !ok || n != "node-y" {
		t.Errorf("fresh-versioned entry after fence = %s, %v", n, ok)
	}
}

// TestLocCacheKeepsTheHotSet drives a 4096-entry cache straight from a seeded
// Zipf(1.2) draw over 2^20 ids, a locate_zipf_cached-shaped stream, and
// asserts the hit ratio after warm-up. Evicting whatever key a map iteration
// yields first kept ≈ 0.79 of the stream; SIEVE keeps ≈ 0.87, close to the
// 0.88 of caching the 4096 most popular ids outright.
func TestLocCacheKeepsTheHotSet(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	cache := newLocCache(Config{LocateCacheTTL: time.Hour, LocateCacheSize: 4096}, fake, nil)
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 1<<20-1)
	const warm, measured = 300_000, 300_000
	hits := 0
	for i := 0; i < warm+measured; i++ {
		a := ids.AgentID(strconv.FormatUint(zipf.Uint64(), 36))
		if _, ok := cache.get(a); ok {
			if i >= warm {
				hits++
			}
			continue
		}
		cache.put(a, "node-0", 1)
	}
	ratio := float64(hits) / measured
	t.Logf("hit ratio %.3f", ratio)
	if ratio < 0.85 {
		t.Errorf("hit ratio %.3f, want ≥ 0.85", ratio)
	}
}

// TestLocCacheHitAllocatesNothing pins the warm cache's cost: a hit, and a
// miss that evicts to make room, allocate nothing.
func TestLocCacheHitAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cache := newLocCache(Config{LocateCacheTTL: time.Hour, LocateCacheSize: 64}, clock.Real{}, metrics.New())
	agents := make([]ids.AgentID, 256)
	for i := range agents {
		agents[i] = ids.AgentID(fmt.Sprintf("warm-%03d", i))
		cache.put(agents[i], "node-0", 1)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		a := agents[i%len(agents)]
		if _, ok := cache.get(a); !ok {
			cache.put(a, "node-1", 1)
		}
		i++
	}); allocs != 0 {
		t.Errorf("a warm get/put allocates %.2f times, want 0", allocs)
	}
}

// TestLocCacheAgeAtHit checks agentloc_core_client_cache_age_seconds: each hit
// observes how long ago its entry was stored, which is how stale a cached
// answer can be.
func TestLocCacheAgeAtHit(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	reg := metrics.New()
	cache := newLocCache(Config{LocateCacheTTL: time.Minute}, fake, reg)
	cache.put("aged", "node-0", 1)
	fake.Advance(3 * time.Second)
	if _, ok := cache.get("aged"); !ok {
		t.Fatal("entry within TTL missed")
	}
	cache.get("absent") // a miss observes no age
	h := reg.Snapshot().HistogramSnap("agentloc_core_client_cache_age_seconds")
	if h.Count != 1 || h.Sum != 3 {
		t.Errorf("age histogram count %d sum %v, want one 3 s observation", h.Count, h.Sum)
	}
}

// checkLocCache verifies the cache's structure: every indexed agent is a
// live slot of the queue, the queue's links agree in both directions and
// end at oldest and newest, the hand is live or unset, and every slot is
// either live or on the free list, never both.
func checkLocCache(t *testing.T, c *locCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.index) > c.max || len(c.slots) > c.max {
		t.Fatalf("%d entries in %d slots, capacity %d", len(c.index), len(c.slots), c.max)
	}
	seen := make([]bool, len(c.slots))
	prev, n, handLive := noSlot, 0, c.hand == noSlot
	for i := c.oldest; i != noSlot; i = c.slots[i].next {
		if seen[i] {
			t.Fatalf("queue revisits slot %d", i)
		}
		seen[i] = true
		s := c.slots[i]
		if s.prev != prev {
			t.Fatalf("slot %d: prev %d, want %d", i, s.prev, prev)
		}
		if j, ok := c.index[s.agent]; !ok || j != i {
			t.Fatalf("slot %d holds %q, indexed at %d (%v)", i, s.agent, j, ok)
		}
		handLive = handLive || c.hand == i
		prev = i
		n++
	}
	if prev != c.newest {
		t.Fatalf("queue ends at %d, newest is %d", prev, c.newest)
	}
	if n != len(c.index) {
		t.Fatalf("queue holds %d slots, index %d", n, len(c.index))
	}
	if !handLive {
		t.Fatalf("hand %d is not a live slot", c.hand)
	}
	for i := c.free; i != noSlot; i = c.slots[i].next {
		if seen[i] {
			t.Fatalf("free slot %d is live or listed twice", i)
		}
		seen[i] = true
		if c.slots[i].agent != "" {
			t.Fatalf("free slot %d still holds %q", i, c.slots[i].agent)
		}
		n++
	}
	if n != len(c.slots) {
		t.Fatalf("%d of %d slots are neither live nor free", len(c.slots)-n, len(c.slots))
	}
}

// FuzzLocCacheOps runs an op tape — put, get, invalidate, fence, clock
// advance — against a small cache and a map model of the latest accepted put
// per agent. A hit must return that put, at a version at or above the fence
// and within the TTL; misses are always allowed (eviction), and the
// structure must check out after every op.
func FuzzLocCacheOps(f *testing.F) {
	f.Add([]byte{3, 0, 0x10, 0, 0x21, 1, 0x10, 1, 0x21, 0, 0x32, 1, 0x10, 0, 0x43, 0, 0x54, 1, 0x21})
	f.Add([]byte{1, 0, 0xe0, 1, 0xe0, 3, 0xa0, 1, 0xe0, 0, 0x41, 1, 0x41, 4, 0x60, 1, 0xe0, 2, 0xe0})
	f.Add([]byte{7, 0, 0x01, 0, 0x02, 0, 0x03, 1, 0x02, 4, 0xff, 1, 0x02, 0, 0x04, 2, 0x03, 1, 0x03})
	// Two slots: the third put evicts a0 into a2's slot, then a2 goes; the
	// hand must have moved on from that slot.
	f.Add([]byte{1, 0, 0x00, 0, 0x01, 0, 0x02, 2, 0x02})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		const ttl = 10 * time.Second
		fake := clock.NewFake(time.Unix(1000, 0))
		cache := newLocCache(Config{LocateCacheTTL: ttl, LocateCacheSize: 1 + int(tape[0]%8)}, fake, nil)
		type put struct {
			node    platform.NodeID
			version uint64
			at      time.Time
		}
		model := make(map[ids.AgentID]put)
		var fence uint64
		for k := 1; k+1 < len(tape); k += 2 {
			arg := tape[k+1]
			agent := ids.AgentID("a" + strconv.Itoa(int(arg%16)))
			switch tape[k] % 5 {
			case 0:
				node, version := platform.NodeID("n"+strconv.Itoa(int(arg>>4))), uint64(arg>>5)
				cache.put(agent, node, version)
				if version >= fence {
					model[agent] = put{node, version, fake.Now()}
				}
			case 1:
				node, ok := cache.get(agent)
				if !ok {
					break
				}
				m, in := model[agent]
				switch {
				case !in:
					t.Fatalf("op %d: hit %s for %s, which has no live put", k, node, agent)
				case node != m.node:
					t.Fatalf("op %d: hit %s for %s, latest put %s", k, node, agent, m.node)
				case m.version < fence:
					t.Fatalf("op %d: hit %s for %s at version %d under fence %d", k, node, agent, m.version, fence)
				case fake.Now().Sub(m.at) > ttl:
					t.Fatalf("op %d: hit %s for %s stored %v ago, TTL %v", k, node, agent, fake.Now().Sub(m.at), ttl)
				}
			case 2:
				cache.invalidate(agent)
				delete(model, agent)
			case 3:
				cache.fence(uint64(arg >> 5))
				fence = max(fence, uint64(arg>>5))
			case 4:
				fake.Advance(time.Duration(arg) * 100 * time.Millisecond)
			}
			checkLocCache(t, cache)
		}
	})
}
