package capindex

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"agentloc/internal/ids"
	"agentloc/internal/wire"
)

func sorted(agents []ids.AgentID) []string {
	out := make([]string, len(agents))
	for i, a := range agents {
		out[i] = string(a)
	}
	sort.Strings(out)
	return out
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in   []string
		want []string
	}{
		{nil, nil},
		{[]string{}, nil},
		{[]string{""}, nil},
		{[]string{"b", "a", "b", "", "a"}, []string{"a", "b"}},
		{[]string{"solo"}, []string{"solo"}},
	}
	for _, c := range cases {
		if got := Normalize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSetMatchRemove(t *testing.T) {
	x := New()
	x.Set("a1", []string{"gpu", "ocr"})
	x.Set("a2", []string{"gpu"})
	x.Set("a3", []string{"ocr", "translate"})

	if got := sorted(x.Match([]string{"gpu"})); !reflect.DeepEqual(got, []string{"a1", "a2"}) {
		t.Fatalf("Match(gpu) = %v", got)
	}
	if got := sorted(x.Match([]string{"gpu", "ocr"})); !reflect.DeepEqual(got, []string{"a1"}) {
		t.Fatalf("Match(gpu,ocr) = %v", got)
	}
	if got := x.Match([]string{"gpu", "nope"}); got != nil {
		t.Fatalf("Match with unknown tag = %v, want nil", got)
	}
	if got := x.Match(nil); got != nil {
		t.Fatalf("Match(nil) = %v, want nil", got)
	}

	// Replacing a set removes the agent from tags it no longer advertises.
	x.Set("a1", []string{"translate"})
	if got := sorted(x.Match([]string{"gpu"})); !reflect.DeepEqual(got, []string{"a2"}) {
		t.Fatalf("after replace, Match(gpu) = %v", got)
	}
	if got := sorted(x.Match([]string{"translate"})); !reflect.DeepEqual(got, []string{"a1", "a3"}) {
		t.Fatalf("after replace, Match(translate) = %v", got)
	}

	if !x.Remove("a1") {
		t.Fatal("Remove(a1) reported no entry")
	}
	if x.Remove("a1") {
		t.Fatal("second Remove(a1) reported an entry")
	}
	if got := x.CapsOf("a1"); got != nil {
		t.Fatalf("CapsOf removed agent = %v", got)
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}

	// Setting an empty set equals removal, and empties leave no dangling tag.
	x.Set("a3", nil)
	if x.Tags() != 1 { // only "gpu" (a2) remains
		t.Fatalf("Tags = %d, want 1", x.Tags())
	}
}

func TestSnapshotAdoptRoundTrip(t *testing.T) {
	x := New()
	x.Set("a1", []string{"gpu", "ocr"})
	x.Set("a2", []string{"planner"})
	snap := x.Snapshot()

	// Mutating the snapshot must not alias the index.
	snap["a1"][0] = "mutated"
	if got := x.CapsOf("a1"); !reflect.DeepEqual(got, []string{"gpu", "ocr"}) {
		t.Fatalf("snapshot aliased index: CapsOf(a1) = %v", got)
	}

	y := New()
	y.Set("a1", []string{"stale"})
	y.Set("a9", []string{"keep"})
	y.Adopt(map[ids.AgentID][]string{
		"a1": {"gpu", "ocr"},
		"a2": {"planner"},
		"a9": nil, // explicit empty removes
	})
	if got := y.CapsOf("a1"); !reflect.DeepEqual(got, []string{"gpu", "ocr"}) {
		t.Fatalf("Adopt did not replace: %v", got)
	}
	if y.CapsOf("a9") != nil {
		t.Fatal("Adopt with empty set did not remove a9")
	}
	if got := sorted(y.Match([]string{"planner"})); !reflect.DeepEqual(got, []string{"a2"}) {
		t.Fatalf("Match(planner) after Adopt = %v", got)
	}
}

// TestSerializeRoundTrip: an index comes back whole from its frame.
func TestSerializeRoundTrip(t *testing.T) {
	x := New()
	for i := 0; i < 50; i++ {
		caps := []string{fmt.Sprintf("cap-%d", i%7)}
		if i%3 == 0 {
			caps = append(caps, "common")
		}
		x.Set(ids.AgentID(fmt.Sprintf("agent-%03d", i)), caps)
	}
	y, err := Deserialize(fullFrame(x))
	if err != nil {
		t.Fatalf("Deserialize: %v", err)
	}
	if !reflect.DeepEqual(x.Snapshot(), y.Snapshot()) {
		t.Fatal("round trip changed index contents")
	}
	if x.Tags() != y.Tags() {
		t.Fatalf("tag count drifted: %d vs %d", x.Tags(), y.Tags())
	}
}

// fullFrame encodes x as the one capability frame older builds wrote of a
// whole index, agents in order.
func fullFrame(x *Index) []byte {
	snap := x.Snapshot()
	payload := wire.AppendUvarint(nil, uint64(len(snap)))
	for _, agent := range slices.Sorted(maps.Keys(snap)) {
		payload = wire.AppendString(payload, string(agent))
		payload = wire.AppendUvarint(payload, uint64(len(snap[agent])))
		for _, c := range snap[agent] {
			payload = wire.AppendString(payload, c)
		}
	}
	return wire.AppendFrame(nil, SerializeMagic, SerializeVersion, kindFull, payload)
}

// legacyDeltaFrame hand-builds the one-agent delta frame (kind 1) that older
// stores wrote beside their snapshots; Deserialize no longer accepts it.
func legacyDeltaFrame(agent string, caps ...string) []byte {
	payload := wire.AppendString(nil, agent)
	payload = wire.AppendUvarint(payload, uint64(len(caps)))
	for _, c := range caps {
		payload = wire.AppendString(payload, c)
	}
	return wire.AppendFrame(nil, SerializeMagic, SerializeVersion, 1, payload)
}

func TestApplyRejectsCorrupt(t *testing.T) {
	x := New()
	x.Set("keep", []string{"gpu"})
	// Valid frame, wrong kind byte: re-frame a full payload as kind 9.
	f, _, err := wire.DecodeFrame(fullFrame(x), SerializeMagic, SerializeVersion)
	if err != nil {
		t.Fatal(err)
	}
	dup := wire.AppendUvarint(nil, 2)
	for range 2 {
		dup = wire.AppendString(dup, "twice")
		dup = wire.AppendUvarint(dup, 0)
	}
	cases := [][]byte{
		nil,
		[]byte("ACAP"),
		[]byte("XXXX\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
		append(fullFrame(x), 0xff), // trailing byte after the frame
		wire.AppendFrame(nil, SerializeMagic, SerializeVersion, 9, f.Payload),
		legacyDeltaFrame("a", "c"),
		wire.AppendFrame(nil, SerializeMagic, SerializeVersion, kindFull, dup),
	}
	for i, data := range cases {
		if _, err := Deserialize(data); err == nil {
			t.Errorf("case %d: Deserialize accepted corrupt input", i)
		} else if i >= 4 && !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestConcurrentSetMatch(t *testing.T) {
	x := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				agent := ids.AgentID(fmt.Sprintf("w%d-a%d", w, i%20))
				switch i % 4 {
				case 0:
					x.Set(agent, []string{"gpu", fmt.Sprintf("cap-%d", i%5)})
				case 1:
					x.Match([]string{"gpu"})
				case 2:
					x.Remove(agent)
				default:
					x.CapsOf(agent)
				}
			}
		}(w)
	}
	wg.Wait()
}
