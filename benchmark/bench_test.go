package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func shortSettings(t *testing.T) settings {
	dir := t.TempDir()
	return settings{
		agents: 1 << 12, seed: 1, warm: 100 * time.Millisecond, window: time.Second,
		short: true, workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"),
	}
}

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json equal
// to what the metric and workload tables in main.go render.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != manifest() {
		t.Fatalf("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", w.name, len(w.why))
		}
	}
}

// TestSmoke runs every workload untraced and traced at smoke-test size and
// checks that each run reports every metric BENCHMARK.json names, finite,
// with no failed operation.
func TestSmoke(t *testing.T) {
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bm.Workloads {
		if w := findWorkload(bw.Name); w == nil || !w.driver {
			t.Errorf("BENCHMARK.json names %q, which is not one of the benchmark's driver workloads", bw.Name)
		}
	}
	s := shortSettings(t)
	check := func(t *testing.T, rep *workloadReport, defs []metricDef, values map[string]float64) {
		t.Helper()
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%d failed of %d attempted: %v", rep.Failed, rep.Attempted, rep.Errors)
		}
		var line struct {
			Correct bool
			Metrics map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(rep, defs, values)), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || len(line.Metrics) != len(defs) {
			t.Errorf("driver line: correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := line.Metrics[d.Name]
			_, measured := values[d.Name]
			if !ok || !measured || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("metric %s: missing, not finite or in the wrong unit", d.Name)
			}
		}
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			u, err := runUntraced(w, s)
			if err != nil {
				t.Fatal(err)
			}
			check(t, u, bm.EndToEnd, u.EndToEnd)
			for _, d := range bm.EndToEnd {
				if u.EndToEnd[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, u.EndToEnd[d.Name])
				}
			}
			tr, err := runTraced(w, s)
			if err != nil {
				t.Fatal(err)
			}
			check(t, tr, bm.PerLayer, tr.PerLayer)
			if w.rehash && (tr.PerLayer["core.hagent.split_ms"] <= 0 || tr.PerLayer["core.client.retry_share"] <= 0) {
				t.Errorf("the rehash left no trace: split_ms=%v retry_share=%v", tr.PerLayer["core.hagent.split_ms"], tr.PerLayer["core.client.retry_share"])
			}
		})
	}
}

// TestCheckerFires proves the correctness check is live: set-up yields four
// leaves, a right answer passes, and the same answer fails once the model
// says the agent is somewhere else.
func TestCheckerFires(t *testing.T) {
	s := shortSettings(t)
	w := findWorkload("locate_uniform")
	c, err := newCluster(w.clusterOpts(s.agents, s.workDir, false))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	ctx := context.Background()
	st, err := c.hashState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Tree.NumLeaves(); n != numLeaves {
		t.Fatalf("%d leaves after set-up, want %d", n, numLeaves)
	}
	wk := &worker{c: c, w: w, client: c.svc.ClientFor(c.nodes[1])}
	const agent = 7
	if !wk.locateIndex(ctx, agent) {
		t.Fatalf("a correct answer failed the check: %v", wk.errs)
	}
	c.model[agent].Store(uint32((agent + 1) % numNodes))
	if wk.locateIndex(ctx, agent) || len(wk.errs) == 0 {
		t.Fatal("the check accepted an answer that contradicts the model")
	}
}

// TestVerdict pins the three outcomes of -compare, above all that noise wider
// than the bound does not hide a change wider still.
func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, noise, bound float64
		want                string
	}{
		{0.05, 0.02, 0.25, "ok"},
		{0.30, 0.02, 0.25, "regressed"},
		{0.45, 0.40, 0.25, "regressed"},
		{0.30, 0.40, 0.25, "unresolved (sub-window ratios spread 40 %)"},
		{-0.10, 0.40, 0.25, "unresolved (sub-window ratios spread 40 %)"},
	} {
		if got := verdict(c.worse, c.noise, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %q, want %q", c.worse, c.noise, c.bound, got, c.want)
		}
	}
	// The same rehash-shaped sub-windows in both runs are not noise; b is
	// uniformly 40 % slower.
	a := []float64{100, 30, 100, 35, 100}
	b := []float64{60, 18, 60, 21, 60}
	if n := positionNoise(a, b); n > 1e-9 {
		t.Errorf("positionNoise of a uniform change = %v, want 0", n)
	}
}
