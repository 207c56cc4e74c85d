package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
)

// numWorkers closed-loop workers drive the cluster. A mobile agent that
// calls Locate before it messages a peer waits for the answer, so the loop
// is closed; two because this sandbox has two processors, which the workers
// share with the three nodes that serve them.
const numWorkers = 2

// The measured window is cut into equal consecutive sub-windows of about
// subWindow each, and throughput, p50 and p99 are taken from the samples of
// the calmest 1/calmShare of them: the sub-windows in which the most
// operations completed, their histograms merged. What disturbs a run in this
// sandbox (a neighbour on the host, a slow stretch of the disk under fsync)
// only ever slows it down and comes in bursts of a second or so, so the
// calmest quarter repeats from run to run where the whole window does not
// (README "Steadiness"). A sub-window is long enough to hold a collection
// cycle of the CPU-bound workloads, so the selection does not pick the
// moments between two of them.
const (
	subWindow = time.Second
	calmShare = 4
)

// subWindowCount is how many sub-windows a window has: one per subWindow,
// and at least calmShare so that the smoke test's short windows rank too.
func subWindowCount(window time.Duration) int {
	return max(calmShare, int(window/subWindow))
}

type opKind int

const (
	opLocate opKind = iota
	opMove
	opBatch
	opDiscover
	numKinds
)

const (
	batchSize     = 64
	discoverLimit = 16
)

// workload is one traffic mix with the cluster settings it needs.
type workload struct {
	name string
	why  string
	// driver lists the workload in BENCHMARK.json, so that the driver runs it
	// and holds its end-to-end metrics to their bounds.
	driver bool
	// mix is the cumulative share of each op kind.
	mix   [numKinds]float64
	zipfS float64 // 0 draws targets uniformly
	// rehash schedules one forced split and the merge that undoes it inside
	// the window, at these fractions of it.
	rehash       bool
	syncOnAppend bool
	cacheTTL     time.Duration
	heartbeat    time.Duration
	flush        string // the WAL flush policy, for the report
}

// The rehash comes at the end of the window: the split splitBeforeEnd before
// it closes, the merge mergeBeforeEnd, which leaves each the time it needs
// (1.3 to 2 s at 2^20 agents) and the traced window the time in which the
// merge's control spans must end to be counted. Everything before the split
// is the mix with heartbeats and checkpoints running and no rehash near it,
// and that is most of the window because throughput does not recover after
// the merge (it stays near a quarter for at least 27 s, README "Findings").
// A window too short for that (the traced one, the smoke test's) falls back
// to fixed shares of its length.
const (
	splitBeforeEnd = 5500 * time.Millisecond
	mergeBeforeEnd = 2500 * time.Millisecond
	minSplitAt     = 0.2
	minMergeAt     = 0.7
)

// rehashSchedule returns the offsets into the window at which the forced
// split and merge start.
func rehashSchedule(window time.Duration) (split, merge time.Duration) {
	at := func(share float64) time.Duration { return time.Duration(share * float64(window)) }
	return max(at(minSplitAt), window-splitBeforeEnd), max(at(minMergeAt), window-mergeBeforeEnd)
}

var workloads = []workload{
	{
		name:   "locate_uniform",
		why:    "Uniform locates over all agents with the cache off: every op is whois, one socket round trip and one table probe, so codec, transport and dispatch changes show here.",
		driver: true,
		mix:    [numKinds]float64{1, 1, 1, 1},
		flush:  "no writes in the window",
	},
	{
		name:     "locate_zipf_cached",
		why:      "Zipf(1.2) locates with the client cache on: most ops are answered with zero RPCs, so this is the bypass for transport and codec changes and the target for cache ones.",
		driver:   true,
		mix:      [numKinds]float64{1, 1, 1, 1},
		zipfS:    1.2,
		cacheTTL: time.Hour,
		flush:    "no writes in the window",
	},
	{
		// Not a driver workload: every operation waits for the sandbox's
		// virtio disk, and in the host's busy hours that made throughput, p50
		// and p99 spread 20 to 30 % between identical runs, more than the
		// widest bound BENCHMARK.json may state (README "Steadiness").
		name:         "move_durable",
		why:          "Moves only, with an fsync per WAL append (ack means durable): the serial mailbox, loctable.Put and the snapshot WAL own the latency, so group commit shows here and nowhere else.",
		mix:          [numKinds]float64{0, 1, 1, 1},
		syncOnAppend: true,
		flush:        "SyncOnAppend=true: fsync before every ack",
	},
	{
		name:      "mixed_rehash",
		why:       "70/20/5/5 locate/move/batch/discover, heartbeats on, a forced split and merge per window: only this drives the gob control plane, stale-copy retries, scatter-gather and capindex (sparse: 1 in 1024)",
		driver:    true,
		mix:       [numKinds]float64{0.70, 0.90, 0.95, 1},
		zipfS:     1.1,
		rehash:    true,
		heartbeat: 500 * time.Millisecond,
		flush:     "SyncOnAppend=false (the locnode default): appends reach the OS, fsync is periodic",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) clusterOpts(agents int, workDir string, traced bool) clusterOpts {
	return clusterOpts{
		agents:       agents,
		workDir:      workDir,
		traced:       traced,
		syncOnAppend: w.syncOnAppend,
		cacheTTL:     w.cacheTTL,
		cacheSize:    4096,
		heartbeat:    w.heartbeat,
	}
}

// ---- the generator's model of where every agent is ----
//
// One word per agent: bits 0-7 the node of the last acked update, bits 8-15
// the destination of a move in flight plus one (0 for none), bits 16-31 a
// count of moves begun. Only the worker that owns an agent moves it, so the
// word has one writer.

func modelAcked(s uint32) int   { return int(s & 0xff) }
func modelPending(s uint32) int { return int(s>>8&0xff) - 1 }
func modelSeq(s uint32) uint16  { return uint16(s >> 16) }

// plausible reports whether node is a correct answer for an agent whose
// model word read s0 before the call and s1 after it: the acked node or the
// destination of a move in flight at either instant. When more than one
// move began during the call (it stalled behind a rehash) every node the
// agent passed through would be correct, and the answer is not judged.
func plausible(s0, s1 uint32, node int) bool {
	if modelSeq(s1)-modelSeq(s0) > 1 {
		return true
	}
	for _, s := range [2]uint32{s0, s1} {
		if node == modelAcked(s) || node == modelPending(s) {
			return true
		}
	}
	return false
}

// nodeIndex maps "n2" back to 2; -1 for anything else.
func nodeIndex(n platform.NodeID) int {
	if len(n) == 2 && n[0] == 'n' && n[1] >= '0' && n[1] < '0'+numNodes {
		return int(n[1] - '0')
	}
	return -1
}

// ---- per-worker state and measurements ----

type winStats struct {
	all    hist
	byKind [numKinds]hist
	failed uint64
}

type worker struct {
	id     int
	c      *cluster
	w      *workload
	client *core.Client
	rng    *rand.Rand
	zipf   *rand.Zipf
	wins   []winStats // one per sub-window

	batch  []ids.AgentID
	batchI []int
	batchS []uint32

	warmFailed uint64   // failures during warm-up: no latency, still failures
	errs       []string // first few failures, for the report
	rehashes   []rehashStat
	nextSplit  int // suffix of the next leaf the HAgent will create
}

type rehashStat struct {
	Op string  `json:"op"`
	MS float64 `json:"ms"`
}

func (wk *worker) fail(format string, args ...any) bool {
	if len(wk.errs) < 5 {
		wk.errs = append(wk.errs, fmt.Sprintf(format, args...))
	}
	return false
}

// target draws the index of the next operation's agent.
func (wk *worker) target() int {
	if wk.zipf != nil {
		return int(wk.zipf.Uint64())
	}
	return wk.rng.Intn(len(wk.c.ids))
}

// ownTarget draws an agent this worker may move: one of its parity that
// advertises no capabilities (those stay put, so Discover answers are exact).
func (wk *worker) ownTarget() int {
	i := wk.target()&^1 | wk.id
	for hasCaps(i) || i >= len(wk.c.ids) {
		i = (i + 2) % len(wk.c.ids)
	}
	return i
}

func (wk *worker) locateIndex(ctx context.Context, i int) bool {
	s0 := wk.c.model[i].Load()
	node, err := wk.client.Locate(ctx, wk.c.ids[i])
	if err != nil {
		return wk.fail("locate %s: %v", wk.c.ids[i], err)
	}
	if !plausible(s0, wk.c.model[i].Load(), nodeIndex(node)) {
		return wk.fail("locate %s: got %s, model word %#x", wk.c.ids[i], node, s0)
	}
	return true
}

func (wk *worker) move(ctx context.Context) bool {
	i := wk.ownTarget()
	m := &wk.c.model[i]
	s := m.Load()
	dest := (modelAcked(s) + 1) % numNodes
	seq := uint32(modelSeq(s)+1) << 16
	m.Store(seq | uint32(dest+1)<<8 | uint32(modelAcked(s)))
	if _, err := wk.client.MoveNotifyTo(ctx, wk.c.ids[i], nodeID(dest), core.Assignment{}); err != nil {
		// The update may or may not have been applied: leave it in flight,
		// so either answer stays acceptable.
		return wk.fail("move %s: %v", wk.c.ids[i], err)
	}
	m.Store(seq | uint32(dest))
	return true
}

func (wk *worker) locateBatch(ctx context.Context) bool {
	wk.batch, wk.batchI, wk.batchS = wk.batch[:0], wk.batchI[:0], wk.batchS[:0]
	for len(wk.batch) < batchSize {
		i := wk.target()
		wk.batch = append(wk.batch, wk.c.ids[i])
		wk.batchI = append(wk.batchI, i)
		wk.batchS = append(wk.batchS, wk.c.model[i].Load())
	}
	got, err := wk.client.LocateBatch(ctx, wk.batch)
	if err != nil {
		return wk.fail("locate-batch: %v", err)
	}
	for k, i := range wk.batchI {
		node, ok := got[wk.batch[k]]
		if !ok || !plausible(wk.batchS[k], wk.c.model[i].Load(), nodeIndex(node)) {
			return wk.fail("locate-batch %s: got %q (present %v), model word %#x", wk.batch[k], node, ok, wk.batchS[k])
		}
	}
	return true
}

// discover asks for the agents carrying two adjacent tags. Advertising
// agents never move, so the expected answer is exact: the discoverLimit
// lowest ids carrying both tags, each at its home node.
func (wk *worker) discover(ctx context.Context) bool {
	t := wk.rng.Intn(numTags)
	q := core.Query{Caps: []string{tagName(t), tagName((t + 1) % numTags)}, Limit: discoverLimit}
	got, err := wk.client.Discover(ctx, q)
	if err != nil {
		return wk.fail("discover %v: %v", q.Caps, err)
	}
	want := expectedMatches(len(wk.c.ids), t)
	if len(got) != len(want) {
		return wk.fail("discover %v: %d matches, want %d", q.Caps, len(got), len(want))
	}
	for k, i := range want {
		if got[k].Agent != wk.c.ids[i] || nodeIndex(got[k].Node) != i%numNodes {
			return wk.fail("discover %v: match %d is %s@%s, want %s@%s", q.Caps, k, got[k].Agent, got[k].Node, wk.c.ids[i], nodeID(i%numNodes))
		}
	}
	return true
}

// expectedMatches lists, in id order, the first discoverLimit agents that
// advertise tags t and t+1.
func expectedMatches(agents, t int) []int {
	var out []int
	for k := t; len(out) < discoverLimit; k += numTags {
		i := k*capEvery + capOffset
		if i >= agents {
			break
		}
		out = append(out, i)
	}
	return out
}

func (wk *worker) do(ctx context.Context, kind opKind) bool {
	switch kind {
	case opLocate:
		return wk.locateIndex(ctx, wk.target())
	case opMove:
		return wk.move(ctx)
	case opBatch:
		return wk.locateBatch(ctx)
	default:
		return wk.discover(ctx)
	}
}

// rehashLeaf is the leaf mixed_rehash splits and re-merges.
const rehashLeaf = ids.AgentID("iagent-3")

// controlOp runs one forced split or merge under a root span of the
// benchmark's own, so the program's existing control spans (which only
// record under a sampled parent) land in the traced run.
func (wk *worker) controlOp(ctx context.Context, split bool) {
	op := "merge"
	if split {
		op = "split"
	}
	sp := wk.c.nodes[0].Tracer().StartRoot("bench", "control."+op)
	if sp != nil {
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	start := time.Now()
	var err error
	if split {
		err = wk.c.forceSplit(ctx, rehashLeaf)
	} else {
		err = wk.c.forceMerge(ctx, ids.AgentID(fmt.Sprintf("iagent-%d", wk.nextSplit)))
		wk.nextSplit++
	}
	sp.End(err)
	if err != nil {
		wk.fail("control %s: %v", op, err)
		wk.wins[0].failed++
	}
	wk.rehashes = append(wk.rehashes, rehashStat{Op: op, MS: float64(time.Since(start)) / 1e6})
}

// run is the closed loop: draw, time, check, record, until the window ends.
func (wk *worker) run(ctx context.Context, warmEnd time.Time, window time.Duration) {
	sub := window / time.Duration(len(wk.wins))
	controls := []time.Time{}
	if wk.w.rehash && wk.id == 0 {
		split, merge := rehashSchedule(window)
		controls = append(controls, warmEnd.Add(split), warmEnd.Add(merge))
	}
	done := 0
	for {
		kind := opLocate
		if u := wk.rng.Float64(); u >= wk.w.mix[opLocate] {
			for kind = opMove; u >= wk.w.mix[kind]; kind++ {
			}
		}
		t0 := time.Now()
		ok := wk.do(ctx, kind)
		t1 := time.Now()
		if t1.Before(warmEnd) {
			if !ok {
				wk.warmFailed++
			}
			continue
		}
		k := int(t1.Sub(warmEnd) / sub)
		if k >= len(wk.wins) {
			break
		}
		ws := &wk.wins[k]
		ns := int64(t1.Sub(t0))
		ws.all.add(ns)
		ws.byKind[kind].add(ns)
		if !ok {
			ws.failed++
		}
		if done < len(controls) && t1.After(controls[done]) {
			wk.controlOp(ctx, done%2 == 0)
			done++
		}
	}
	// A window too short to reach the merge must still end on four leaves.
	for ; done%2 == 1; done++ {
		wk.controlOp(ctx, false)
	}
}

// ---- one measured window over a cluster ----

// windowResult is what one warm-up plus measured window yields.
type windowResult struct {
	Seconds    float64
	Ops        uint64
	Failed     uint64
	MeanUS     float64
	SubP50US   []float64
	SubP99US   []float64
	SubOpsPerS []float64
	// The calmest 1/calmShare of the sub-windows, merged: which they were,
	// how many samples they hold, and the three timing metrics.
	Calm        []int
	CalmSamples uint64
	CalmOpsPerS float64
	CalmP50US   float64
	CalmP99US   float64
	KindP50US   [numKinds]float64
	KindOps     [numKinds]uint64
	Mallocs     uint64
	GCPauseNS   uint64
	Errors      []string
	Rehashes    []rehashStat
	// Registry counters at the window's edges (traced clusters only).
	before, after metrics.Snapshot
}

func (r *windowResult) throughput() float64 { return r.CalmOpsPerS }
func (r *windowResult) p50() float64        { return r.CalmP50US }
func (r *windowResult) p99() float64        { return r.CalmP99US }

// drive runs the workload's closed loop against the cluster: a discarded
// warm-up, then the measured window.
func (c *cluster) drive(w *workload, seed int64, warm, window time.Duration) (*windowResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), warm+window+2*time.Minute)
	defer cancel()
	workers := make([]*worker, numWorkers)
	for i := range workers {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		wk := &worker{
			id: i, c: c, w: w, rng: rng,
			// Worker i speaks from node i+1; the HAgent and two of the four
			// leaves live on node 0, so most calls cross a socket.
			client:    c.svc.ClientFor(c.nodes[(i+1)%numNodes]),
			wins:      make([]winStats, subWindowCount(window)),
			nextSplit: numLeaves + 1,
		}
		if w.zipfS > 0 {
			wk.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(len(c.ids)-1))
		}
		workers[i] = wk
	}

	var m0, m1 runtime.MemStats
	res := &windowResult{Seconds: window.Seconds()}
	warmEnd := time.Now().Add(warm)
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.run(ctx, warmEnd, window)
		}()
	}
	time.Sleep(time.Until(warmEnd))
	runtime.ReadMemStats(&m0)
	if c.opts.traced {
		res.before = c.reg.Snapshot()
		c.agg.window(true)
	}
	time.Sleep(time.Until(warmEnd.Add(window)))
	runtime.ReadMemStats(&m1)
	if c.opts.traced {
		c.agg.window(false)
		res.after = c.reg.Snapshot()
	}
	wg.Wait()

	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	var byKind [numKinds]hist
	subs := make([]hist, len(workers[0].wins))
	subSeconds := res.Seconds / float64(len(subs))
	for k := range subs {
		all := &subs[k]
		for _, wk := range workers {
			all.merge(&wk.wins[k].all)
			res.Failed += wk.wins[k].failed
			for kind := range byKind {
				byKind[kind].merge(&wk.wins[k].byKind[kind])
			}
		}
		res.Ops += all.n
		res.MeanUS += float64(all.sumNS) / 1e3
		res.SubOpsPerS = append(res.SubOpsPerS, float64(all.n)/subSeconds)
		res.SubP50US = append(res.SubP50US, all.quantile(0.50)/1e3)
		res.SubP99US = append(res.SubP99US, all.quantile(0.99)/1e3)
	}
	for kind := range byKind {
		res.KindP50US[kind] = byKind[kind].quantile(0.50) / 1e3
		res.KindOps[kind] = byKind[kind].n
	}
	// Rank the sub-windows by operations completed; the first quarter is the
	// calm set.
	for k := range subs {
		res.Calm = append(res.Calm, k)
	}
	slices.SortStableFunc(res.Calm, func(a, b int) int { return cmp.Compare(subs[b].n, subs[a].n) })
	res.Calm = res.Calm[:len(subs)/calmShare]
	var calm hist
	for _, k := range res.Calm {
		calm.merge(&subs[k])
	}
	slices.Sort(res.Calm)
	res.CalmSamples = calm.n
	res.CalmOpsPerS = float64(calm.n) / (subSeconds * float64(len(res.Calm)))
	res.CalmP50US, res.CalmP99US = calm.quantile(0.50)/1e3, calm.quantile(0.99)/1e3
	for _, wk := range workers {
		res.Ops += wk.warmFailed
		res.Failed += wk.warmFailed
		res.Errors = append(res.Errors, wk.errs...)
		res.Rehashes = append(res.Rehashes, wk.rehashes...)
	}
	if res.Ops == 0 {
		return res, errors.New("no operation completed inside the window")
	}
	res.MeanUS /= float64(res.Ops)
	if w.rehash {
		st, err := c.hashState(ctx)
		if err != nil {
			return res, err
		}
		if n := st.Tree.NumLeaves(); n != numLeaves {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("tree ends the window with %d leaves, want %d", n, numLeaves))
		}
	}
	return res, nil
}
