package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spread is the distance between the quartiles of vs as a share of their
// median; 0 when there are too few values to have quartiles.
func spread(vs []float64) float64 {
	if len(vs) < 4 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	return (s[3*len(s)/4] - s[len(s)/4]) / med
}

func loadReport(path string) (*runReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// positionNoise is how far apart the same-position sub-windows of two runs
// put the ratio b/a: the quartile spread of b[i]/a[i] over the positions i. A
// uniform change moves every ratio alike, and a sub-window that differs by
// design (mixed_rehash's rehashes fall at fixed positions) differs in both
// runs, so neither counts as noise.
func positionNoise(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var ratios []float64
	for i := range a {
		if a[i] > 0 {
			ratios = append(ratios, b[i]/a[i])
		}
	}
	return spread(ratios)
}

// verdict judges how much worse b is than a: regressed when that exceeds
// both the bound and the noise, unresolved when the noise is wider than the
// bound and so hides anything smaller, ok otherwise.
func verdict(worse, noise, bound float64) string {
	switch {
	case worse > bound && worse > noise:
		return "regressed"
	case noise > bound:
		return fmt.Sprintf("unresolved (sub-window ratios spread %.0f %%)", noise*100)
	}
	return "ok"
}

// compareFiles prints, for every workload and end-to-end metric, both
// values, the ratio with its base, the bound and the verdict. It returns
// false when anything regressed or a run reported failed operations.
func compareFiles(w io.Writer, pathA, pathB string) bool {
	a, err := loadReport(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadReport(pathB)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(w, "a = %s (seed %d, %d agents)\nb = %s (seed %d, %d agents)\n\n", pathA, a.Seed, a.Agents, pathB, b.Seed, b.Agents)
	fmt.Fprintf(w, "%-20s %-22s %14s %14s  %-24s %6s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict")
	ok := true
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-20s missing from b\n", wa.Workload)
			ok = false
			continue
		}
		for _, d := range endToEndDefs {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if va == 0 {
				fmt.Fprintf(w, "%-20s %-22s missing from a\n", wa.Workload, d.Name)
				ok = false
				continue
			}
			worse := vb/va - 1
			if d.Better == "higher" {
				worse = 1 - vb/va
			}
			v := verdict(worse, positionNoise(wa.Sub[d.Name], wb.Sub[d.Name]), d.Bound)
			ok = ok && v != "regressed"
			fmt.Fprintf(w, "%-20s %-22s %14.4f %14.4f  %-24s %5.0f%%  %s\n", wa.Workload, d.Name, va, vb,
				fmt.Sprintf("%.3fx of %.4g %s", vb/va, va, d.Unit), d.Bound*100, v)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-20s %-22s %14d %14d  failed operations: any is a regression\n", wa.Workload, "failed", wa.Failed, wb.Failed)
			ok = false
		}
	}
	return ok
}
