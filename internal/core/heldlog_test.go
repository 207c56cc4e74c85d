package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/raceflag"
	"agentloc/internal/snapshot"
)

// heldSender plays a checkpointing leaf against a buddy's acceptCheckpoint:
// it makes random changes to a leaf state of its own, logs each as the
// record write would, and keeps what its leaf read after each record, so
// that a held copy can be checked at whatever record it has reached.
type heldSender struct {
	t     *testing.T
	rng   *rand.Rand
	leaf  leafState
	log   [][]byte                    // record k, in stream form
	views []map[ids.AgentID]agentView // views[k]: the leaf after k records
	buddy *IAgentBehavior
}

func newHeldSender(t *testing.T, seed int64) *heldSender {
	buddy := &IAgentBehavior{}
	buddy.state.Store(&State{Ver: 1, Tree: hashtree.New("iagent-2"), Locations: map[ids.AgentID]platform.NodeID{"iagent-2": "node-0"}})
	s := &heldSender{t: t, rng: rand.New(rand.NewSource(seed)), leaf: newLeafState(), buddy: buddy}
	s.views = append(s.views, map[ids.AgentID]agentView{})
	return s
}

// change makes one random change: a put (a registration, a move or a
// re-registration, bound or not, with a capability set or an empty one that
// keeps the held set), a delete, or a bound move of a whole handle.
func (s *heldSender) change() {
	agent := ids.AgentID(fmt.Sprintf("h-%02d", s.rng.Intn(40)))
	node := platform.NodeID(fmt.Sprintf("node-%d", s.rng.Intn(4)))
	handle := ids.ResidenceID(fmt.Sprintf("res@%d", s.rng.Intn(3)))
	var changes []change
	switch n := s.rng.Intn(10); {
	case n < 2:
		changes = []change{{agent: agent, hash: agent.Hash64(), delete: true}}
	case n < 3:
		changes, _ = s.leaf.move(handle, node)
	default:
		c := change{agent: agent, hash: agent.Hash64(), node: node, load: 1}
		if s.rng.Intn(3) == 0 {
			c.handle = handle
		}
		if s.rng.Intn(3) == 0 {
			c.caps = []string{fmt.Sprintf("t%d", s.rng.Intn(4)), fmt.Sprintf("t%d", s.rng.Intn(4))}
		}
		changes = []change{c}
	}
	for i := range changes {
		s.leaf.apply(changes[i : i+1])
		s.log = append(s.log, snapshot.AppendStream(nil, s.leaf.logged(&changes[i])))
		view := readLeaf(s.leaf)
		for a, v := range view {
			v.load = 0
			view[a] = v
		}
		s.views = append(s.views, view)
	}
}

func (s *heldSender) push(req CheckpointReq) Status {
	s.t.Helper()
	req.From, req.HashVersion, req.Live = "iagent-1", 1, uint64(s.leaf.table.Len())
	resp, err := s.buddy.acceptCheckpoint(req)
	if err != nil {
		s.t.Fatalf("push %+v: %v", req, err)
	}
	return resp.Status
}

// full pushes the sender's leaf as it is now in chunks of size records, as
// streamTable cuts it.
func (s *heldSender) full(size int) {
	s.t.Helper()
	req := CheckpointReq{Full: true, Seq: uint64(len(s.log))}
	n := 0
	ship := func() {
		if st := s.push(req); st != StatusOK {
			s.t.Fatalf("chunk at offset %d: %v", req.Offset, st)
		}
		req.Records, req.Offset, n = nil, req.Offset+uint64(n), 0
	}
	s.leaf.each(nil, func(r record) bool {
		req.Records, n = snapshot.AppendStream(req.Records, r.put(0)), n+1
		if n == size {
			ship()
		}
		return true
	})
	if n > 0 || req.Offset == 0 {
		ship()
	}
}

// records is the stream of log records [from, to).
func (s *heldSender) records(from, to int) []byte {
	return bytes.Join(s.log[from:to], nil)
}

func (s *heldSender) held() CheckpointState {
	return s.buddy.checkpoints["iagent-1"]
}

// check folds the held copy and compares it with the sender's leaf as it was
// after the records the copy has reached.
func (s *heldSender) check(step int, what string) {
	s.t.Helper()
	held := s.held()
	if held.Seq > uint64(len(s.log)) {
		s.t.Fatalf("step %d (%s): the copy is at record %d of %d", step, what, held.Seq, len(s.log))
	}
	if got, want := readLeaf(held.Log.fold()), s.views[held.Seq]; !reflect.DeepEqual(got, want) {
		s.t.Fatalf("step %d (%s): the copy at record %d folds to %v;\nwant %v", step, what, held.Seq, got, want)
	}
}

// TestHeldCopyFoldsToTheChanges feeds seeded random push sequences — full
// pushes in chunks, deltas that continue the copy, resend records it holds
// or leave a gap, and stale chunks — to a buddy, and
// checks after every push that the held copy folds to the sender's leaf as
// of the last record the copy holds: the same changes applied to a leaf
// state.
func TestHeldCopyFoldsToTheChanges(t *testing.T) {
	var paths [5]int // continued, duplicate, gapped, stale chunk, compacted
	for seed := int64(1); seed <= 8; seed++ {
		s := newHeldSender(t, seed)
		for range 20 {
			s.change()
		}
		s.full(1 + s.rng.Intn(8))
		s.check(0, "full push")
		for step := 1; step < 300; step++ {
			for range s.rng.Intn(4) {
				s.change()
			}
			held, end := s.held(), len(s.log)
			what := ""
			switch n := s.rng.Intn(20); {
			case n < 12 && int(held.Seq) < end:
				what = "delta"
				paths[0]++
				if st := s.push(CheckpointReq{Seq: held.Seq, Records: s.records(int(held.Seq), end)}); st != StatusOK {
					t.Fatalf("step %d: delta: %v", step, st)
				}
			case n < 15 && held.Seq > 0:
				what = "duplicate range"
				paths[1]++
				from := s.rng.Intn(int(held.Seq))
				if st := s.push(CheckpointReq{Seq: uint64(from), Records: s.records(from, end)}); st != StatusOK {
					t.Fatalf("step %d: duplicate range: %v", step, st)
				}
			case n < 17 && int(held.Seq)+1 < end:
				what = "gapped range"
				paths[2]++
				from := int(held.Seq) + 1 + s.rng.Intn(end-int(held.Seq)-1)
				if st := s.push(CheckpointReq{Seq: uint64(from), Records: s.records(from, end)}); st != StatusIgnored {
					t.Fatalf("step %d: a gapped delta was answered %v", step, st)
				}
				s.full(1 + s.rng.Intn(8)) // what the sender does next
			case n < 18:
				what = "stale chunk"
				paths[3]++
				stale := CheckpointReq{Full: true, Seq: held.Seq, Offset: uint64(held.Log.Len()) + 1, Records: s.records(0, min(end, 2))}
				if st := s.push(stale); st != StatusIgnored {
					t.Fatalf("step %d: a chunk the copy does not continue was answered %v", step, st)
				}
			default:
				what = "full push"
				s.full(1 + s.rng.Intn(8))
			}
			if after := s.held(); after.Log.Len() < held.Log.Len() && what != "full push" && what != "gapped range" {
				paths[4]++
			}
			s.check(step, what)
		}
	}
	t.Logf("continued %d, duplicate %d, gapped %d, stale chunk %d, compacted %d", paths[0], paths[1], paths[2], paths[3], paths[4])
	for i, n := range paths {
		if n == 0 {
			t.Errorf("path %d never ran", i)
		}
	}
}

// TestHeldCopyFoldAllocBudget: folding a held copy — at a takeover or a
// compaction — costs the leaf it builds and not an
// allocation per record: 2^18 put records, one in 64 bound and one in 64
// advertising (a bound or advertising agent costs the maps that keep it a
// copy of its id and a cell or two).
func TestHeldCopyFoldAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const records = 1 << 18
	var held recordLog
	var stream []byte
	for i := range records {
		rec := snapshot.Record{Op: snapshot.OpPut, Agent: fmt.Sprintf("a-%07d", i), Node: fmt.Sprintf("node-%d", i%4)}
		switch i % 64 {
		case 1:
			rec.Handle = fmt.Sprintf("res@%d", i%5)
		case 2:
			rec.Caps = []string{"gpu"}
		}
		stream = snapshot.AppendStream(stream, rec)
	}
	if err := checkStream(stream); err != nil {
		t.Fatal(err)
	}
	held.Append(stream, 0)
	var folded leafState
	start := time.Now()
	allocs := testing.AllocsPerRun(1, func() { folded = held.fold() })
	elapsed := time.Since(start) / 2 // AllocsPerRun runs it twice
	if folded.table.Len() != records {
		t.Fatalf("the fold holds %d of %d records", folded.table.Len(), records)
	}
	t.Logf("%.3f allocs per record folded, %v per fold of %d records", allocs/records, elapsed, records)
	if allocs/records > 0.1 {
		t.Errorf("a fold allocates %.3f times per record, budget 0.1", allocs/records)
	}
}
