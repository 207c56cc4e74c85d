// Package loctable provides the sharded location table behind an IAgent:
// agent-id → node mappings split over N power-of-two stripes, each behind
// its own sync.RWMutex. Stripes are selected from the agent id's mixed hash
// bits, so concurrent Get calls (the locate hot path) never contend with
// each other and only collide with a Put/Delete that lands on the same
// stripe. Full-table operations (Snapshot, Range) take one stripe lock at a
// time — readers and writers on other stripes proceed while a snapshot or a
// checkpoint iteration is in flight; there is no global pause.
//
// Each stripe stores its entries in a dense open-addressed array — flat
// 16-byte {tag, key offset, node, load} slots with linear probing and
// backward-shift deletion — instead of a Go map. At the
// million-agent scale an IAgent is sized for, the flat layout halves the
// per-entry overhead (no bucket headers, no tombstones, one probe sequence
// per lookup) and keeps probes on one cache line most of the time. A stripe's
// array has any length from minStripeCap up, not only a power of two, so a
// stripe is sized to its population: a growth or a shrink leaves it at 5/8
// load, and it grows again only past 3/4, which keeps every stripe between
// the two while ids arrive and bounds the probe length as a 3/4 maximum
// does. Node ids are interned per table and a slot holds only the intern
// index, so a million entries pointing at a handful of nodes share a handful
// of strings.
//
// A slot holds no pointer: the agent ids of a stripe live back to back in
// one byte arena, each behind a uvarint length prefix (one byte for an id
// under 128 bytes), and a slot names its id by the prefix's offset. Both
// arrays are pointer-free, so the collector never scans the table however
// many agents it holds, and an id costs its bytes plus its prefix. The arena
// is append-only; deleted ids are reclaimed by copying the live ones into a
// fresh arena, when the stripe shrinks and whenever deleted bytes pass half
// of it. A growth moves slots only: every offset, and the arena, stay.
// An id the table hands out (Slot.Agent, Range, GetSlot, Snapshot's keys) is
// a view of the arena, read in place — see stripe.key for why that is safe.
//
// A slot keeps 32 bits of the id's hash, its tag: enough to pick the home
// slot (the tag modulo the stripe's length) and to skip nearly every other id
// on the probe chain without reading its bytes, and the key compare every hit
// makes anyway settles the rest.
// The full hash is not stored; RangeSlots recomputes it from the id.
//
// The slot, with its id's bytes, is also the only per-agent record an IAgent
// keeps: load is the agent's accumulated request count (paper §4.1: "we
// maintain for each agent the accumulated rate of update and query
// requests"), a saturating counter bumped atomically by the counted lookups
// under the stripe's read lock — on the cache line the probe has just
// touched, with nothing to allocate for an agent the table does not hold.
//
// Binary Serialize/Deserialize (see serialize.go) give a table a framed form
// without loads, streamed one stripe lock at a time; older builds wrote it in
// their IAgent snapshot sections. A leaf's own durable form and handoffs are
// its record stream, in the core layer.
package loctable

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// DefaultStripes is the stripe count used by New. 16 stripes keep stripe
// collisions between a reader and a writer below ~6% while the per-table
// footprint stays negligible.
const DefaultStripes = 16

// Open-addressing parameters. A stripe holds at most 3/4 load — linear
// probing degrades sharply beyond that — and shrinks when it falls below 1/8,
// so a table that handed off most of its id space after a rehash returns the
// memory. Either way it is resized to 5/8 load (sizeFor), so it takes a fifth
// more ids before it must grow again. minStripeCap keeps tiny tables from
// resizing constantly.
const (
	minStripeCap  = 8
	loadNum       = 3
	loadDen       = 4
	fillNum       = 5
	fillDen       = 8
	shrinkDivisor = 8
)

// sizeFor is the capacity a resize gives a stripe of n ids: n at 5/8 load,
// rounded down so the load is at least 5/8, and never below minStripeCap.
// From 4 ids up it is also at most 3/4.
func sizeFor(n int) int { return max(minStripeCap, n*fillDen/fillNum) }

// MaxLoad is where a slot's request counter saturates.
const MaxLoad = math.MaxUint32

// maxArena is the most bytes, length prefixes included, one stripe's key
// arena may hold, since a slot's offset is a uint32. It is a variable only so
// that a test can reach it without 4 GiB of ids.
var maxArena uint64 = math.MaxUint32

// entry is one dense slot: the agent's tag (see stripeFor; 0 marks a free
// slot), where the agent's length-prefixed id sits in the stripe's key arena,
// the index of its interned node, and its accumulated request count. Two ids
// in a stripe share a tag with probability 2^-32, so a tag match is only
// ever confirmed by comparing the id's bytes. A slot holds no pointer, so
// neither does a stripe's slot array, which the collector therefore never
// scans. load is only ever touched with atomic operations while the stripe
// is read-locked; whole slots are copied (reslot, backward shift) under the
// write lock alone, which is why it is a plain word and not an atomic.Uint32.
type entry struct {
	tag  uint32
	off  uint32 // the id's length prefix in stripe.keys
	node uint32
	load uint32
}

// entrySize is a slot's size in bytes.
const entrySize = int64(unsafe.Sizeof(entry{}))

// addLoad charges n requests to the slot, saturating at MaxLoad. Readers
// holding the stripe's read lock call it concurrently.
func (e *entry) addLoad(n uint64) {
	for {
		old := atomic.LoadUint32(&e.load)
		sum := uint64(old) + n
		if sum > MaxLoad || sum < n {
			sum = MaxLoad
		}
		if uint32(sum) == old || atomic.CompareAndSwapUint32(&e.load, old, uint32(sum)) {
			return
		}
	}
}

// stripe is one lock-plus-dense-array shard of the table.
type stripe struct {
	mu      sync.RWMutex
	entries []entry // nil until first Put, then at least minStripeCap long
	// magic is ⌈2^64 / len(entries)⌉, the constant home reduces a tag by.
	magic uint64
	used  int
	// keys is the arena holding every slot's id back to back, each behind
	// its uvarint length. It grows only by append and is replaced whole by
	// compact, never written below its length: the invariant key rests on.
	keys []byte
	dead int // bytes of keys, prefixes included, that no slot names any more
}

// footprint is the heap the stripe's slot array and key arena take.
func (s *stripe) footprint() int64 {
	return int64(len(s.entries))*entrySize + int64(cap(s.keys))
}

// key returns slot e's agent id as a view of the key arena, without copying.
// This is the package's one unsafe conversion, and it rests on one
// invariant: a byte of an arena below its length is never written again —
// keys grows only by append, which writes past the length, and compact copies
// the live ids into a fresh array instead of reusing the old one. So a view
// never changes under its holder, and it stays valid after the stripe lock
// is released and after any later Put, Delete, resize or compaction; while a
// view is held it keeps the array it reads alive. The caller holds the
// stripe lock.
func (s *stripe) key(e *entry) ids.AgentID {
	k := s.keyBytes(e)
	if len(k) == 0 {
		return ""
	}
	return ids.AgentID(unsafe.String(&k[0], len(k)))
}

// keyBytes is slot e's id as a slice of the arena. The caller holds the
// stripe lock and only reads it.
func (s *stripe) keyBytes(e *entry) []byte { return idAt(s.keys, e.off) }

// idAt reads the id whose length prefix starts at keys[off]. An id under 128
// bytes, whose prefix is one byte, takes the short path.
func idAt(keys []byte, off uint32) []byte {
	n := uint32(keys[off])
	if n >= 0x80 {
		return longID(keys[off:])
	}
	return keys[off+1 : off+1+n]
}

// longID is idAt past a prefix of two bytes or more.
func longID(k []byte) []byte {
	n, w := binary.Uvarint(k)
	return k[w:][:n]
}

// appendKey appends agent to the arena behind its length prefix and returns
// the prefix's offset.
func (s *stripe) appendKey(agent ids.AgentID) uint32 {
	off := uint32(len(s.keys))
	s.keys = binary.AppendUvarint(s.keys, uint64(len(agent)))
	s.keys = append(s.keys, agent...)
	return off
}

// arenaBytes is what an id of n bytes takes in a key arena, prefix included.
func arenaBytes(n int) int {
	return n + (bits.Len64(uint64(n)|1)+6)/7
}

// Table is a sharded agent-location map, safe for concurrent use.
type Table struct {
	stripes []stripe
	mask    uint64
	// shift discards the hash bits already consumed by stripe selection, so
	// slot probing inside a stripe starts from bits that still vary.
	shift uint
	count atomic.Int64
	bytes atomic.Int64 // Bytes

	// nodeMu guards nodes, the per-table node-id intern map, and every store
	// to nodeList. A cluster has few nodes and a table has up to millions of
	// entries; interning makes every entry's node field a 4-byte index.
	// Each interned id carries a reference count — one ref per table entry
	// pointing at it — so a node whose last entry is deleted (or replaced
	// by a Put to a different node) leaves the map instead of leaking:
	// long-lived tables on churny clusters would otherwise accumulate an
	// intern entry for every node id they ever saw.
	nodeMu sync.RWMutex
	nodes  map[platform.NodeID]*nodeRef
	// nodeList maps a slot's node index back to its id. It is replaced, never
	// written in place, so lookups resolve an index without a lock; an index
	// stays valid for as long as a slot holds it (the slot's reference keeps
	// it from being evicted and reused), so it is resolved while the slot's
	// stripe is still locked.
	nodeList atomic.Pointer[[]*nodeRef]
}

// nodeRef is one interned node id, its index in nodeList, and the number of
// live table entries referencing it. refs is atomic so the acquire fast path
// (node already interned — the overwhelmingly common case) only takes the
// read lock.
type nodeRef struct {
	canon platform.NodeID
	idx   uint32
	refs  atomic.Int64
}

// New returns an empty table with DefaultStripes stripes.
func New() *Table { return NewWithStripes(DefaultStripes) }

// NewWithStripes returns an empty table with n stripes, rounded up to the
// next power of two (minimum 1).
func NewWithStripes(n int) *Table {
	size := 1
	for size < n {
		size <<= 1
	}
	return &Table{
		stripes: make([]stripe, size),
		mask:    uint64(size - 1),
		shift:   uint(bits.TrailingZeros(uint(size))),
		nodes:   make(map[platform.NodeID]*nodeRef),
	}
}

// stripeFor selects the stripe serving an agent's Hash64 and returns the
// agent's tag: the 32 hash bits just above the stripe-selection bits, with 0
// remapped to 1 since 0 marks a free slot. The tag modulo the stripe's length
// is the home slot (stripe.home). The hash tree consumes the id's leading
// bits, so a leaf deep in the tree serves ids that share a long prefix;
// striping by the hash's LOW bits keeps the stripes of a hot leaf uniformly
// loaded regardless of the leaf's depth, and probing starts above them. The tag is returned widened to a
// uint64 so callers can mix it with hash words.
func (t *Table) stripeFor(h uint64) (*stripe, uint64) {
	tag := h >> t.shift & math.MaxUint32
	if tag == 0 {
		tag = 1
	}
	return &t.stripes[h&t.mask], tag
}

// acquireNode interns a node id and takes one reference on it, zero-alloc
// once seen. Every table entry holds exactly one reference on its node;
// releaseNode drops it when the entry is deleted or re-pointed.
func (t *Table) acquireNode(node platform.NodeID) uint32 {
	t.nodeMu.RLock()
	if r, ok := t.nodes[node]; ok {
		// Deletion requires the write lock, so r cannot vanish while we
		// hold the read lock; incrementing here makes it visible to the
		// zero-recheck in releaseNode.
		r.refs.Add(1)
		t.nodeMu.RUnlock()
		return r.idx
	}
	t.nodeMu.RUnlock()
	t.nodeMu.Lock()
	r, ok := t.nodes[node]
	if !ok {
		r = &nodeRef{canon: node}
		t.nodes[node] = r
		t.listNode(r)
	}
	r.refs.Add(1)
	t.nodeMu.Unlock()
	return r.idx
}

// listNode gives a fresh nodeRef the first free index of a copy of nodeList
// and publishes the copy. Caller holds nodeMu for writing.
func (t *Table) listNode(r *nodeRef) {
	var list []*nodeRef
	if cur := t.nodeList.Load(); cur != nil {
		list = append(list, *cur...)
	}
	free := len(list)
	for i, held := range list {
		if held == nil {
			free = i
			break
		}
	}
	if free == len(list) {
		list = append(list, nil)
	}
	r.idx = uint32(free)
	list[free] = r
	t.nodeList.Store(&list)
}

// nodeAt resolves a slot's node index. The caller holds the lock of the
// stripe the slot sits in.
func (t *Table) nodeAt(idx uint32) platform.NodeID {
	return (*t.nodeList.Load())[idx].canon
}

// releaseNode drops one reference on an interned node, evicting the intern
// entry when the last table entry referencing it disappears. The caller
// took idx from a slot it has just removed or re-pointed, so the reference
// it drops is its own and the index is still live.
func (t *Table) releaseNode(idx uint32) {
	r := (*t.nodeList.Load())[idx]
	if r.refs.Add(-1) > 0 {
		return
	}
	// Possibly the last reference: re-check under the write lock, since a
	// concurrent acquireNode may have resurrected the count.
	t.nodeMu.Lock()
	if cur, ok := t.nodes[r.canon]; ok && cur == r && r.refs.Load() <= 0 {
		delete(t.nodes, r.canon)
		list := append([]*nodeRef(nil), *t.nodeList.Load()...)
		list[idx] = nil
		t.nodeList.Store(&list)
	}
	t.nodeMu.Unlock()
}

// home is tag's home slot, tag mod len(entries), by Lemire's multiply-based
// reduction ("Faster Remainder by Direct Computation", 2019): the low 64 bits
// of magic·tag are the fraction tag/len in fixed point, and their product
// with len, shifted down 64 bits, is the remainder — exact for a 32-bit tag
// and length, in two multiplies where a division takes tens of cycles. At a
// power-of-two length it is the tag's low bits, as a mask would take them.
func (s *stripe) home(tag uint64) int {
	hi, _ := bits.Mul64(s.magic*tag, uint64(len(s.entries)))
	return int(hi)
}

// next is the slot after i, wrapping at the end of the array.
func (s *stripe) next(i int) int {
	if i++; i == len(s.entries) {
		return 0
	}
	return i
}

// find locates the slot for (tag, agent): the entry's index if present, else
// the free slot where it would be inserted. Caller holds the stripe lock.
// Load is kept strictly below 1, so the probe always terminates.
func (s *stripe) find(tag uint64, agent ids.AgentID) (int, bool) {
	for i := s.home(tag); ; i = s.next(i) {
		e := &s.entries[i]
		if e.tag == 0 {
			return i, false
		}
		if uint64(e.tag) == tag && string(s.keyBytes(e)) == string(agent) { // no alloc: comparison only
			return i, true
		}
	}
}

// findBytes is find with a raw byte key, comparing id bytes without a
// string conversion.
func (s *stripe) findBytes(tag uint64, agent []byte) (int, bool) {
	for i := s.home(tag); ; i = s.next(i) {
		e := &s.entries[i]
		if e.tag == 0 {
			return i, false
		}
		if uint64(e.tag) == tag && string(s.keyBytes(e)) == string(agent) { // no alloc: comparison only
			return i, true
		}
	}
}

// reslot moves the entries into a fresh slot array of the given capacity.
// Entries are unique, so insertion probes to the first free slot without
// equality checks. The key arena and every offset into it stay.
func (s *stripe) reslot(capacity int) {
	old := s.entries
	s.entries = make([]entry, capacity)
	s.magic = math.MaxUint64/uint64(capacity) + 1
	for i := range old {
		if e := old[i]; e.tag != 0 {
			j := s.home(uint64(e.tag))
			for s.entries[j].tag != 0 {
				j = s.next(j)
			}
			s.entries[j] = e
		}
	}
}

// compact copies the live ids into a fresh key arena, in slot order, and
// points each slot at its copy, dropping the arena's dead bytes.
func (s *stripe) compact() {
	old := s.keys
	s.keys = make([]byte, 0, len(old)-s.dead)
	for i := range s.entries {
		if e := &s.entries[i]; e.tag != 0 {
			n := arenaBytes(len(idAt(old, e.off)))
			off := len(s.keys)
			s.keys = append(s.keys, old[e.off:int(e.off)+n]...)
			e.off = uint32(off)
		}
	}
	s.dead = 0
}

// removeAt deletes the entry at slot i by backward shifting: every
// displaced successor in the probe chain moves one step closer to its home
// slot, so the table never needs tombstones and lookups stay O(probe). The
// entry's id bytes stay in the arena, counted dead.
func (s *stripe) removeAt(i int) {
	s.dead += arenaBytes(len(s.keyBytes(&s.entries[i])))
	for j := s.next(i); s.entries[j].tag != 0; j = s.next(j) {
		// entries[j] may fill the hole only if its home slot does not lie
		// strictly between the hole and its current slot (cyclically): moving
		// it to i must not place it before its home.
		if s.steps(s.home(uint64(s.entries[j].tag)), j) >= s.steps(i, j) {
			s.entries[i] = s.entries[j]
			i = j
		}
	}
	s.entries[i] = entry{}
	s.used--
}

// steps is how far a probe walks from slot from to slot to, wrapping at the
// end of the array.
func (s *stripe) steps(from, to int) int {
	if to < from {
		return to - from + len(s.entries)
	}
	return to - from
}

// Get returns the recorded node of an agent.
func (t *Table) Get(agent ids.AgentID) (platform.NodeID, bool) {
	return t.GetHashed(agent, agent.Hash64())
}

// GetHashed is Get for a caller that already holds agent.Hash64() — an
// IAgent hashes an id once for the responsibility check and the probe.
func (t *Table) GetHashed(agent ids.AgentID, hash uint64) (platform.NodeID, bool) {
	s, tag := t.stripeFor(hash)
	s.mu.RLock()
	if s.entries == nil {
		s.mu.RUnlock()
		return "", false
	}
	i, ok := s.find(tag, agent)
	var node platform.NodeID
	if ok {
		node = t.nodeAt(s.entries[i].node)
	}
	s.mu.RUnlock()
	return node, ok
}

// GetSlot is GetHashed returning the agent's whole slot, load included.
func (t *Table) GetSlot(agent ids.AgentID, hash uint64) (Slot, bool) {
	s, tag := t.stripeFor(hash)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.entries == nil {
		return Slot{}, false
	}
	i, ok := s.find(tag, agent)
	if !ok {
		return Slot{}, false
	}
	e := &s.entries[i]
	return Slot{Agent: s.key(e), Node: t.nodeAt(e.node), Hash: hash, Load: atomic.LoadUint32(&e.load)}, true
}

// GetCountedBytes looks an agent up by its id as raw bytes and its
// ids.HashBytes, and charges one request to the agent's load counter in the
// same probe: a served locate allocates nothing for its key. An agent the
// table does not hold has nowhere to count: misses cost no memory.
func (t *Table) GetCountedBytes(agent []byte, hash uint64) (platform.NodeID, bool) {
	s, tag := t.stripeFor(hash)
	s.mu.RLock()
	if s.entries == nil {
		s.mu.RUnlock()
		return "", false
	}
	i, ok := s.findBytes(tag, agent)
	var node platform.NodeID
	if ok {
		e := &s.entries[i]
		e.addLoad(1)
		node = t.nodeAt(e.node)
	}
	s.mu.RUnlock()
	return node, ok
}

// AddLoadHashed charges n requests to an agent's load counter (saturating at
// MaxLoad), reporting whether the table holds the agent. hash is the agent's
// Hash64.
func (t *Table) AddLoadHashed(agent ids.AgentID, hash, n uint64) bool {
	s, tag := t.stripeFor(hash)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.entries == nil {
		return false
	}
	i, ok := s.find(tag, agent)
	if ok {
		s.entries[i].addLoad(n)
	}
	return ok
}

// Put records (or replaces) the agent's node. A replaced entry keeps its
// load; a new one starts at zero.
func (t *Table) Put(agent ids.AgentID, node platform.NodeID) {
	t.PutHashed(agent, agent.Hash64(), node, 0)
}

// PutHashed is Put with the agent's precomputed Hash64 that also charges
// addLoad requests to the entry, in the same probe: an update counts itself,
// a handoff or a recovered record restores the count it carries. A new entry
// copies the id into the stripe's arena, so the table never keeps the caller's
// string. One that would take the arena past 4 GiB panics rather than wrap
// its offset: that is hundreds of millions of ids in one stripe, which no
// leaf holds short of a split that never came.
func (t *Table) PutHashed(agent ids.AgentID, hash uint64, node platform.NodeID, addLoad uint64) {
	idx := t.acquireNode(node)
	s, tag := t.stripeFor(hash)
	s.mu.Lock()
	footprint := s.footprint()
	if loadDen*(s.used+1) > loadNum*len(s.entries) {
		s.reslot(sizeFor(s.used + 1))
	}
	i, existed := s.find(tag, agent)
	e := &s.entries[i]
	var replaced uint32
	if existed {
		replaced = e.node
		e.node = idx
	} else {
		if uint64(len(s.keys))+uint64(arenaBytes(len(agent))) > maxArena {
			t.bytes.Add(s.footprint() - footprint)
			s.mu.Unlock()
			t.releaseNode(idx)
			panic(fmt.Sprintf("loctable: a stripe's key arena cannot pass %d bytes", maxArena))
		}
		*e = entry{tag: uint32(tag), off: s.appendKey(agent), node: idx}
		s.used++
	}
	if addLoad > 0 {
		e.addLoad(addLoad)
	}
	t.bytes.Add(s.footprint() - footprint)
	s.mu.Unlock()
	if existed {
		// The entry's reference moved to the new node; drop the old one
		// (a no-op net effect when the node is unchanged).
		t.releaseNode(replaced)
	} else {
		t.count.Add(1)
	}
}

// Delete forgets an agent, reporting whether an entry existed.
func (t *Table) Delete(agent ids.AgentID) bool {
	return t.DeleteHashed(agent, agent.Hash64())
}

// DeleteHashed is Delete with the agent's precomputed Hash64. The stripe
// shrinks below 1/8 load, back to 5/8, and its arena is compacted then and
// whenever deleted ids are more than half of it.
func (t *Table) DeleteHashed(agent ids.AgentID, hash uint64) bool {
	s, tag := t.stripeFor(hash)
	s.mu.Lock()
	existed := false
	var removed uint32
	if s.entries != nil {
		var i int
		if i, existed = s.find(tag, agent); existed {
			removed = s.entries[i].node
			s.removeAt(i)
			footprint := s.footprint()
			switch {
			case len(s.entries) > minStripeCap && s.used < len(s.entries)/shrinkDivisor:
				s.reslot(sizeFor(s.used))
				s.compact()
			case 2*s.dead > len(s.keys):
				s.compact()
			}
			t.bytes.Add(s.footprint() - footprint)
		}
	}
	s.mu.Unlock()
	if existed {
		t.releaseNode(removed)
		t.count.Add(-1)
	}
	return existed
}

// Reserve readies the table for n more ids, spread over its stripes as their
// hashes spread them: a stripe too small to take its share of n on top of
// what it holds is resized once, as a growth at that population would size it,
// instead of growing a fifth at a time while the ids arrive. A stripe with
// room is left as it is. A stream of known length — a handoff, a recovered
// section, a held copy's fold — calls it before it applies its records.
func (t *Table) Reserve(n int) {
	share := (n + len(t.stripes) - 1) / len(t.stripes)
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		if want := s.used + share; loadDen*want > loadNum*len(s.entries) {
			footprint := s.footprint()
			s.reslot(sizeFor(want))
			t.bytes.Add(s.footprint() - footprint)
		}
		s.mu.Unlock()
	}
}

// Len returns the number of entries. It reads a counter maintained across
// stripes, so it never takes a lock.
func (t *Table) Len() int { return int(t.count.Load()) }

// Bytes returns the heap the table's slot arrays and key arenas take, their
// spare capacity included. Like Len it reads a counter, kept on every resize
// and arena growth, and never walks the table.
func (t *Table) Bytes() int64 { return t.bytes.Load() }

// Slot is one entry as RangeSlots yields it.
type Slot struct {
	// Agent is a view of the table's key arena (see stripe.key): immutable and
	// valid for as long as it is held, but it keeps the arena it was read from
	// alive, so code that keeps an id long after the table drops it should
	// keep a copy (strings.Clone).
	Agent ids.AgentID
	Node  platform.NodeID
	// Hash is the agent's Hash64 — the word hashtree.LookupHash walks — so a
	// consumer can read the id's leading bits without hashing again. A slot
	// keeps only the hash's tag bits, so RangeSlots recomputes it from the id;
	// GetSlot returns the hash its caller passed.
	Hash uint64
	// Load is the agent's accumulated request count.
	Load uint32
}

// RangeSlots calls f for every entry, load and hash included, until f
// returns false, holding only the current stripe's read lock. f must not
// call back into the same Table's write methods (self-deadlock on the stripe
// lock).
func (t *Table) RangeSlots(f func(Slot) bool) {
	for i := range t.stripes {
		if !t.RangeStripe(i, f) {
			return
		}
	}
}

// Stripes returns the stripe count, the bound of RangeStripe's index.
func (t *Table) Stripes() int { return len(t.stripes) }

// RangeStripe is RangeSlots over stripe i alone, reporting whether f asked
// for more. A walk that visits the stripes one call at a time holds no lock
// in between and still sees each stripe whole: within a stripe a resize or a
// deletion's backward shift moves slots, so a stripe is the smallest unit a
// walk can put down and pick up again without missing an entry.
func (t *Table) RangeStripe(i int, f func(Slot) bool) bool {
	s := &t.stripes[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	for j := range s.entries {
		e := &s.entries[j]
		if e.tag == 0 {
			continue
		}
		agent := s.key(e)
		if !f(Slot{
			Agent: agent,
			Node:  t.nodeAt(e.node),
			Hash:  agent.Hash64(),
			Load:  atomic.LoadUint32(&e.load),
		}) {
			return false
		}
	}
	return true
}

// Range calls f for every entry until f returns false, under the same
// locking as RangeSlots.
func (t *Table) Range(f func(agent ids.AgentID, node platform.NodeID) bool) {
	t.RangeSlots(func(s Slot) bool { return f(s.Agent, s.Node) })
}

// Snapshot copies the table into a plain map, locking one stripe at a time.
// Entries mutated on already-visited stripes during the copy may be missed —
// the same weak consistency a concurrent map range would give, and exactly
// what incremental checkpointing tolerates. The map's keys are views of the
// table's key arenas, like Slot.Agent.
func (t *Table) Snapshot() map[ids.AgentID]platform.NodeID {
	out := make(map[ids.AgentID]platform.NodeID, t.Len())
	t.Range(func(a ids.AgentID, n platform.NodeID) bool {
		out[a] = n
		return true
	})
	return out
}
