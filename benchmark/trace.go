package main

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"agentloc/internal/trace"
)

// durStat accumulates one span name's occurrences.
type durStat struct {
	N  int64 `json:"n"`
	NS int64 `json:"ns"`
}

func (d durStat) meanUS() float64 {
	if d.N == 0 {
		return 0
	}
	return float64(d.NS) / float64(d.N) / 1e3
}

func (d durStat) meanMS() float64 { return d.meanUS() / 1e3 }

// spanAgg folds completed spans into per-name totals from the recorders'
// SetHooks callback, so the traced run keeps aggregates (plus the recorders'
// own rings of recent spans) in memory instead of every span.
type spanAgg struct {
	mu sync.Mutex
	on bool
	// spans is keyed "tier/name".
	spans map[string]*durStat
	// childNS is the time covered by the already-ended children of a span
	// that is still open, keyed by that span's id.
	childNS map[uint64]int64
	roots   int64 // client operations (root client spans)
	selfNS  int64 // their duration minus what their children cover
	rpcs    int64
}

func newSpanAgg() *spanAgg {
	return &spanAgg{spans: map[string]*durStat{}, childNS: map[uint64]int64{}}
}

// window switches folding on or off; set-up and warm-up traffic is recorded
// by the recorders but must not count toward the window's aggregates.
func (a *spanAgg) window(on bool) {
	a.mu.Lock()
	a.on = on
	a.mu.Unlock()
}

func (a *spanAgg) observe(s trace.Span) {
	a.mu.Lock()
	defer a.mu.Unlock()
	covered := a.childNS[s.SpanID]
	delete(a.childNS, s.SpanID)
	if !a.on {
		return
	}
	if s.Parent != 0 {
		a.childNS[s.Parent] += int64(s.Duration)
	}
	key := s.Tier + "/" + s.Name
	st := a.spans[key]
	if st == nil {
		st = &durStat{}
		a.spans[key] = st
	}
	st.N++
	st.NS += int64(s.Duration)
	if s.Tier != "client" || s.Parent != 0 {
		return
	}
	a.roots++
	if self := int64(s.Duration) - covered; self > 0 {
		a.selfNS += self
	}
	n, _ := strconv.Atoi(s.Attr("rpcs"))
	a.rpcs += int64(n)
}

// get returns one span name's totals.
func (a *spanAgg) get(key string) durStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.spans[key]; st != nil {
		return *st
	}
	return durStat{}
}

// sumPrefix adds up every span name starting with prefix.
func (a *spanAgg) sumPrefix(prefix string) durStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out durStat
	for k, st := range a.spans {
		if strings.HasPrefix(k, prefix) {
			out.N += st.N
			out.NS += st.NS
		}
	}
	return out
}

// traceDump is what out/<workload>.trace.json holds.
type traceDump struct {
	Workload string              `json:"workload"`
	Window   string              `json:"window"`
	Roots    int64               `json:"client_ops"`
	Spans    map[string]durStat  `json:"span_totals"`
	Recent   map[string][]string `json:"recent_spans"`
}

func (c *cluster) traceDump(workload string, window time.Duration) traceDump {
	a := c.agg
	a.mu.Lock()
	d := traceDump{Workload: workload, Window: window.String(), Roots: a.roots, Spans: map[string]durStat{}, Recent: map[string][]string{}}
	for k, st := range a.spans {
		d.Spans[k] = *st
	}
	a.mu.Unlock()
	for _, rec := range c.recs {
		spans := rec.Snapshot()
		if len(spans) > 64 {
			spans = spans[len(spans)-64:]
		}
		for _, s := range spans {
			d.Recent[rec.Node()] = append(d.Recent[rec.Node()], s.String())
		}
	}
	return d
}
