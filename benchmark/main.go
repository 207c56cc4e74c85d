// Command benchmark is the repository's benchmark: it boots a three-node
// cluster in this process over real transport.TCP sockets on 127.0.0.1
// (loopback, not a network link), registers 2^20 agents on a four-leaf hash
// tree, drives it closed-loop through the public core.Client API, checks
// every answer against its own model, and reports end-to-end metrics from an
// untraced window and per-layer metrics from a traced one. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"agentloc/internal/core"
)

// metricDef names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before it is a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.20},
	{"heap_bytes_per_agent", "B", "lower", 0.05},
}

var perLayerDefs = []metricDef{
	{Name: "core.client.self_us", Unit: "us", Better: "lower"},
	{Name: "core.client.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.client.rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.client.retry_share", Unit: "ratio", Better: "lower"},
	{Name: "core.client.backoff_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.client.locate_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.client.move_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.client.batch64_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.client.discover_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.lhagent.whois_us", Unit: "us", Better: "lower"},
	{Name: "core.client.rpc_us", Unit: "us", Better: "lower"},
	{Name: "platform.serve_locate_us", Unit: "us", Better: "lower"},
	{Name: "platform.serve_update_us", Unit: "us", Better: "lower"},
	{Name: "platform.fastpath_share", Unit: "ratio", Better: "higher"},
	{Name: "platform.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "platform.mailbox_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.echo_allocs", Unit: "allocs", Better: "lower"},
	{Name: "transport.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.envelopes_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.locate_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.locate_codec_allocs", Unit: "allocs", Better: "lower"},
	{Name: "wire.locate_req_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.batch64_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handoff_codec_ms", Unit: "ms", Better: "lower"},
	{Name: "loctable.get_ns", Unit: "ns", Better: "lower"},
	{Name: "loctable.put_ns", Unit: "ns", Better: "lower"},
	{Name: "loctable.bytes_per_agent", Unit: "B", Better: "lower"},
	{Name: "loctable.serialize_ms", Unit: "ms", Better: "lower"},
	{Name: "hashtree.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "capindex.match_us", Unit: "us", Better: "lower"},
	{Name: "capindex.set_ns", Unit: "ns", Better: "lower"},
	{Name: "snapshot.append_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.wal_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "snapshot.write_full_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hagent.split_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hagent.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.iagent.handoff_ms", Unit: "ms", Better: "lower"},
	{Name: "core.iagent.adopt_ms", Unit: "ms", Better: "lower"},
	{Name: "core.iagent.checkpoint_lag_entries", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// runSeconds is the untraced measured window (BENCHMARK.json's run_seconds,
// which the driver passes back as --seconds); tracedWindow caps the traced
// window, which is what gets shortened when the wall-time budget binds.
const (
	runSeconds   = 30
	tracedWindow = 8 * time.Second
)

// settings is what the flags choose; -short is the only size switch.
type settings struct {
	agents  int
	seed    int64
	warm    time.Duration
	window  time.Duration
	short   bool
	workDir string
	outDir  string
}

// workloadReport is one workload's results, as out/run.json keeps them and
// -compare reads them.
type workloadReport struct {
	Workload  string               `json:"workload"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	EndToEnd  map[string]float64   `json:"end_to_end,omitempty"`
	Samples   uint64               `json:"samples,omitempty"` // behind throughput, p50 and p99
	Sub       map[string][]float64 `json:"sub_windows,omitempty"`
	Calm      []int                `json:"calm_sub_windows,omitempty"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
	Rehashes  []rehashStat         `json:"rehashes,omitempty"`
	Errors    []string             `json:"errors,omitempty"`
}

// addDurable counts the crash-recovery check's cold locates as operations.
func (rep *workloadReport) addDurable(d *durableResult) {
	rep.Attempted += d.Checked
	rep.Failed += d.Wrong
	rep.Errors = append(rep.Errors, d.Errors...)
}

type runReport struct {
	GoVersion     string           `json:"go_version"`
	NumCPU        int              `json:"nproc"`
	Kernel        string           `json:"kernel"`
	Transport     string           `json:"transport"`
	Agents        int              `json:"agents"`
	Seed          int64            `json:"seed"`
	WindowSeconds float64          `json:"window_seconds"`
	Workloads     []workloadReport `json:"workloads"`
}

func kernelVersion() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// runUntraced measures the end-to-end metrics: one set-up, a discarded
// warm-up and the measured window with no recorder and no registry attached,
// and for move_durable the crash-recovery check.
func runUntraced(w *workload, s settings) (*workloadReport, error) {
	rep := &workloadReport{Workload: w.name, EndToEnd: map[string]float64{}, Sub: map[string][]float64{}}
	c, err := newCluster(w.clusterOpts(s.agents, s.workDir, false))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	heap := c.heapPerAgent()
	r, err := c.drive(w, s.seed, s.warm, s.window)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Errors, rep.Rehashes = r.Ops, r.Failed, r.Errors, r.Rehashes
	if w.syncOnAppend {
		d, err := c.verifyDurable(context.Background())
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		rep.addDurable(d)
		fmt.Printf("  durability: crashed 3 nodes, recovered in %.0f ms, %d acked locations checked cold, %d wrong\n", d.RecoverMS, d.Checked, d.Wrong)
	}
	rep.EndToEnd["setup_s"] = c.setupSeconds
	rep.EndToEnd["throughput_ops_s"] = r.throughput()
	rep.EndToEnd["p50_us"] = r.p50()
	rep.EndToEnd["p99_us"] = r.p99()
	rep.EndToEnd["allocs_per_op"] = float64(r.Mallocs) / float64(r.Ops)
	rep.EndToEnd["heap_bytes_per_agent"] = heap
	rep.Sub["throughput_ops_s"], rep.Sub["p50_us"], rep.Sub["p99_us"] = r.SubOpsPerS, r.SubP50US, r.SubP99US
	rep.Calm, rep.Samples = r.Calm, r.CalmSamples
	if r.CalmSamples < 1000 {
		fmt.Printf("  warning: the calm sub-windows hold %d samples, fewer than the 1000 a p99 with ten samples beyond it needs\n", r.CalmSamples)
	}
	return rep, nil
}

// runTraced measures the per-layer metrics: the isolated probes, a short
// untraced reference window (for the tracing overhead), then a fresh cluster
// with a sample-1 recorder and a registry on every node. Its windows are at
// most tracedWindow long, whatever --seconds says.
func runTraced(w *workload, s settings) (*workloadReport, error) {
	window := min(s.window, tracedWindow)
	// The probes go first, while no cluster's heap or background work can
	// reach into them.
	m, err := runProbes(s.workDir, s.short)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	rep := &workloadReport{Workload: w.name, PerLayer: m}

	// Half a window is enough of a reference, except where the window's
	// scheduled rehashes would then fill most of it.
	refWindow := window / 2
	if w.rehash {
		refWindow = window
	}
	fmt.Printf("  traced window %v after an untraced reference window of %v\n", window, refWindow)
	ref, err := newCluster(w.clusterOpts(s.agents, s.workDir, false))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	refRes, err := ref.drive(w, s.seed, s.warm, refWindow)
	ref.close()
	if err != nil {
		return nil, err
	}

	c, err := newCluster(w.clusterOpts(s.agents, s.workDir, true))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	r, err := c.drive(w, s.seed, s.warm, window)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Errors, rep.Rehashes, rep.Samples = r.Ops, r.Failed, r.Errors, r.Rehashes, r.Ops
	c.perLayer(r, m)
	m["trace.overhead_share"] = (refRes.throughput() - r.throughput()) / refRes.throughput()
	dump := c.traceDump(w.name, window)

	m["snapshot.write_full_ms"], m["snapshot.recover_ms"] = 0, 0
	if w.syncOnAppend {
		// Reported once, where durability is the point: a full snapshot of
		// every node, then the crash-recovery check on top of it.
		start := time.Now()
		for _, n := range c.nodes {
			p, err := core.StartPersister(n, c.cfg, time.Hour)
			if err != nil {
				return nil, err
			}
			p.Stop() // Stop writes exactly one full snapshot
		}
		m["snapshot.write_full_ms"] = float64(time.Since(start)) / 1e6 / numNodes
		d, err := c.verifyDurable(context.Background())
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		m["snapshot.recover_ms"] = d.RecoverMS
		rep.addDurable(d)
	}

	if err := writeJSON(filepath.Join(s.outDir, w.name+".trace.json"), dump); err != nil {
		return nil, err
	}

	if w.name == "locate_uniform" {
		// The four terms are means over the traced window and add up to the
		// traced mean by construction, if the spans cover the operation.
		sum := m["core.client.self_us"] + m["core.lhagent.whois_us"] + m["transport.rtt_us"] + m["platform.serve_locate_us"]
		fmt.Printf("  layer sum self+whois+rtt+serve = %.1f us beside a traced mean of %.1f us (traced p50 %.1f us, untraced p50 %.1f us)", sum, r.MeanUS, r.p50(), refRes.p50())
		if d := math.Abs(sum-r.MeanUS) / r.MeanUS; d > 0.15 {
			fmt.Printf("  (warning: sum and mean differ by %.0f %%, more than 15 %%)", d*100)
		}
		fmt.Println()
	}
	return rep, nil
}

// perLayer derives the traced window's per-layer metrics from the folded
// spans, the registry's counters and the generator's own timers.
func (c *cluster) perLayer(r *windowResult, m map[string]float64) {
	a := c.agg
	ops := float64(a.roots)
	if ops == 0 {
		ops = 1
	}
	count := func(name string, labels ...string) float64 {
		return float64(r.after.Counter(name, labels...)) - float64(r.before.Counter(name, labels...))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["core.client.self_us"] = float64(a.selfNS) / ops / 1e3
	m["core.client.cache_hit_share"] = ratio(count("agentloc_core_client_cache_total", "result", "hit"), count("agentloc_core_client_cache_total"))
	m["core.client.rpcs_per_op"] = float64(a.rpcs) / ops
	m["core.client.retry_share"] = count("agentloc_core_client_retries_total") / ops
	m["core.client.backoff_us_per_op"] = float64(a.get("client/backoff").NS) / ops / 1e3
	m["core.client.locate_p50_us"] = r.KindP50US[opLocate]
	m["core.client.move_p50_us"] = r.KindP50US[opMove]
	m["core.client.batch64_p50_us"] = r.KindP50US[opBatch]
	m["core.client.discover_p50_us"] = r.KindP50US[opDiscover]
	m["core.lhagent.whois_us"] = a.get("client/whois").meanUS()
	rpc := a.sumPrefix("client/iagent.")
	m["core.client.rpc_us"] = rpc.meanUS()
	m["platform.serve_locate_us"] = a.get("server/" + core.KindLocate).meanUS()
	m["platform.serve_update_us"] = a.get("server/" + core.KindUpdate).meanUS()
	m["platform.fastpath_share"] = ratio(count("agentloc_platform_agent_requests_fastpath_total"), count("agentloc_platform_agent_requests_total"))
	// The round trip minus the time the serving node spent inside it: what
	// the codec, the socket and the RPC layer's goroutine hops cost.
	var served int64
	for _, kind := range []string{core.KindLocate, core.KindUpdate, core.KindLocateBatch, core.KindDiscover} {
		served += a.get("server/" + kind).NS
	}
	if rpc.N > 0 {
		m["transport.rtt_us"] = float64(rpc.NS-served) / float64(rpc.N) / 1e3
	}
	m["transport.envelopes_per_op"] = count("agentloc_transport_envelopes_sent_total") / ops
	m["snapshot.wal_writes_per_op"] = count("agentloc_snapshot_writes_total", "kind", "wal") / ops
	m["core.hagent.split_ms"] = a.get("control/rehash.split").meanMS()
	m["core.hagent.merge_ms"] = a.get("control/rehash.merge").meanMS()
	m["core.iagent.handoff_ms"] = a.get("control/iagent.handoff").meanMS()
	m["core.iagent.adopt_ms"] = a.get("control/iagent.adopt").meanMS()
	m["core.iagent.checkpoint_lag_entries"] = float64(r.after.Gauge("agentloc_checkpoint_lag_entries"))
	m["runtime.gc_pause_ms_per_s"] = float64(r.GCPauseNS) / 1e6 / r.Seconds
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printMetrics(defs []metricDef, values map[string]float64, samples uint64) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-38s %14.4f %-7s", d.Name, v, d.Unit)
		if d.Name == "p50_us" || d.Name == "p99_us" || d.Name == "throughput_ops_s" {
			fmt.Printf(" (%d samples)", samples)
		}
		fmt.Println()
	}
}

// driverLine is the one JSON object the driver reads from the last line.
func driverLine(rep *workloadReport, defs []metricDef, values map[string]float64) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{values[d.Name], d.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	out := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // Bound is 0 there and omitted
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds, EndToEnd: endToEndDefs, PerLayer: perLayerDefs}
	for _, w := range workloads {
		if w.driver {
			out.Workloads = append(out.Workloads, wl{w.name, w.why})
		}
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	return string(b) + "\n"
}

func main() {
	var s settings
	name := flag.String("workload", "", "run one workload (default: all four)")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics only; 1: traced run, per-layer metrics only; with either, the last output line is the driver's JSON object (default: both runs, human report)")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured window")
	probesOnly := flag.Bool("probes", false, "run the isolated per-layer probes alone")
	compare := flag.Bool("compare", false, "compare two out/run.json files given as arguments")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	flag.Int64Var(&s.seed, "seed", 1, "seed of every random draw")
	flag.BoolVar(&s.short, "short", false, "smoke-test sizes: 2^12 agents, 1 s windows")
	flag.StringVar(&s.workDir, "workdir", filepath.Join("out", "work"), "scratch directory for the nodes' snapshot stores")
	flag.StringVar(&s.outDir, "outdir", "out", "directory for run.json and the trace files")
	flag.Parse()

	s.agents, s.warm, s.window = 1<<20, time.Second, time.Duration(*seconds*float64(time.Second))
	if s.short {
		s.agents, s.warm, s.window = 1<<12, 200*time.Millisecond, time.Second
	}
	switch {
	case *printManifest:
		fmt.Print(manifest())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		if !compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	case *probesOnly:
		probes, err := runProbes(s.workDir, s.short)
		if err != nil {
			fatal("probes: %v", err)
		}
		printMetrics(perLayerDefs, probes, 0)
		return
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		selected = []workload{*w}
	}
	fmt.Printf("agentloc benchmark: %d nodes in one process over transport.TCP on 127.0.0.1 (loopback, not a link), %d agents, %d leaves, %d closed-loop workers, seed %d, window %v; latencies are this sandbox's, not a LAN's\n",
		numNodes, s.agents, numLeaves, numWorkers, s.seed, s.window)
	report := runReport{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Kernel: kernelVersion(),
		Transport: "transport.TCP on 127.0.0.1, one process", Agents: s.agents, Seed: s.seed, WindowSeconds: s.window.Seconds(),
	}
	failed := false
	last := ""
	for i := range selected {
		w := &selected[i]
		fmt.Printf("\n%s — flush policy: %s\n", w.name, w.flush)
		rep := &workloadReport{Workload: w.name}
		if *trace != 1 {
			u, err := runUntraced(w, s)
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			rep = u
			printMetrics(endToEndDefs, u.EndToEnd, u.Samples)
			for _, name := range []string{"throughput_ops_s", "p50_us", "p99_us"} {
				fmt.Printf("  sub-windows %-26s %.1f\n", name, u.Sub[name])
			}
			fmt.Printf("  the three timing metrics are over the calmest %d of %d sub-windows: %v\n", len(u.Calm), len(u.Sub["p50_us"]), u.Calm)
			fmt.Printf("  %-38s %14.6f %-7s (%d failed of %d attempted)\n", "error_share", float64(u.Failed)/float64(u.Attempted), "ratio", u.Failed, u.Attempted)
			last = driverLine(u, endToEndDefs, u.EndToEnd)
		}
		if *trace != 0 {
			t, err := runTraced(w, s)
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			printMetrics(perLayerDefs, t.PerLayer, t.Samples)
			last = driverLine(t, perLayerDefs, t.PerLayer)
			rep.PerLayer = t.PerLayer
			if *trace == 1 {
				rep = t
			} else {
				rep.Attempted, rep.Failed = rep.Attempted+t.Attempted, rep.Failed+t.Failed
				rep.Errors = append(rep.Errors, t.Errors...)
			}
		}
		for _, r := range rep.Rehashes {
			fmt.Printf("  rehash: %s took %.0f ms\n", r.Op, r.MS)
		}
		for _, e := range rep.Errors {
			fmt.Printf("  FAILED: %s\n", e)
		}
		failed = failed || rep.Failed > 0
		report.Workloads = append(report.Workloads, *rep)
	}
	if *trace < 0 {
		if err := writeJSON(filepath.Join(s.outDir, "run.json"), report); err != nil {
			fatal("%v", err)
		}
		if failed {
			fatal("correctness check failed")
		}
		return
	}
	// Driver mode: the result object is the last line; a run that reports
	// failed operations still prints it, then exits non-zero.
	fmt.Println(last)
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
