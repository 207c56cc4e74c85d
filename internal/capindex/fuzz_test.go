package capindex

import (
	"reflect"
	"testing"
)

// FuzzApply throws arbitrary bytes at the capability-frame decoder,
// Deserialize (the target keeps the name of the Apply entry point it
// replaced, so its committed corpus stays where it is). The invariants:
// never panic, never OOM on a hostile length prefix, and any input that
// decodes must survive an encode → deserialize round trip with identical
// contents.
func FuzzApply(f *testing.F) {
	seed := New()
	seed.Set("agent-1", []string{"gpu", "ocr"})
	seed.Set("agent-2", []string{"planner"})
	f.Add(fullFrame(seed))
	f.Add(fullFrame(New()))
	f.Add(legacyDeltaFrame("agent-1", "gpu"))
	f.Add(legacyDeltaFrame("agent-1"))
	f.Add([]byte("ACAP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := Deserialize(data)
		if err != nil {
			return
		}
		// Decoded state must round-trip exactly.
		y, err := Deserialize(fullFrame(x))
		if err != nil {
			t.Fatalf("re-deserialize of accepted input failed: %v", err)
		}
		xs := x.Snapshot()
		if !reflect.DeepEqual(xs, y.Snapshot()) {
			t.Fatalf("round trip changed contents: %v vs %v", xs, y.Snapshot())
		}
		// Inverse index must agree with the forward map.
		for agent, caps := range xs {
			for _, c := range caps {
				found := false
				for _, a := range x.Match([]string{c}) {
					if a == agent {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("agent %q missing from Match(%q)", agent, c)
				}
			}
		}
	})
}
