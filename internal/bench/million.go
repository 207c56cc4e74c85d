package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// Million-agent scale measurements, serialized into BENCH_million.json.
// Three of the rows exercise the structures that bound single-process
// capacity directly — the dense location table and the binary update-batch
// codec — because registering a million agents through the full RPC stack
// would measure the registration path, not the resident state. The fourth
// row (cached locate) runs the real client stack on a warm cache: the
// paper's steady state, where a popular agent's location is answered
// without touching the network.

// MillionTable fills a location table with the given population and
// measures fill throughput, resident bytes per agent, and concurrent
// locate (Get) throughput. Two rows: "million/table_fill" and
// "million/locate".
func MillionTable(agents int) (fill, locate Result) {
	tbl := loctable.New()
	node := platform.NodeID("bench-node-3")

	idOf := func(i int) ids.AgentID { return ids.AgentID(fmt.Sprintf("m-agent-%07d", i)) }

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < agents; i++ {
		tbl.Put(idOf(i), node)
	}
	fillElapsed := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)

	fill = Result{
		Name:          "million/table_fill",
		Workers:       1,
		Ops:           agents,
		Seconds:       fillElapsed.Seconds(),
		Throughput:    float64(agents) / fillElapsed.Seconds(),
		BytesPerAgent: float64(after.HeapAlloc-before.HeapAlloc) / float64(agents),
	}

	// Concurrent locate phase: every core probes the full population.
	workers := runtime.GOMAXPROCS(0)
	perWorker := agents / workers
	if perWorker < 1 {
		perWorker = 1
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perWorker; i++ {
				if _, ok := tbl.Get(idOf(rng.Intn(agents))); !ok {
					panic("bench: registered agent missing")
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	ops := workers * perWorker
	locate = Result{
		Name:        "million/locate",
		Workers:     workers,
		Ops:         ops,
		Seconds:     elapsed.Seconds(),
		Throughput:  float64(ops) / elapsed.Seconds(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
	return fill, locate
}

// MillionCodec measures the binary update-batch codec: one coalesced
// UpdateBatchReq frame per flush, encode plus decode, reported per entry.
// Row: "million/codec_batch".
func MillionCodec(entries, rounds int) Result {
	req := core.UpdateBatchReq{Updates: make([]core.UpdateReq, entries)}
	for i := range req.Updates {
		req.Updates[i] = core.UpdateReq{
			Agent:     ids.AgentID(fmt.Sprintf("m-agent-%07d", i)),
			Node:      "bench-node-3",
			Residence: "res@bench-node-3",
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		payload, err := transport.Encode(req)
		if err != nil {
			panic(err)
		}
		var out core.UpdateBatchReq
		if err := transport.Decode(payload, &out); err != nil {
			panic(err)
		}
		if len(out.Updates) != entries {
			panic("bench: batch round trip lost entries")
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	ops := entries * rounds
	return Result{
		Name:        "million/codec_batch",
		Workers:     1,
		Ops:         ops,
		Seconds:     elapsed.Seconds(),
		Throughput:  float64(ops) / elapsed.Seconds(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

// CachedLocate runs the full client stack with a warm version-fenced cache
// and measures pure cache-hit locates — the steady-state read path. Row:
// "million/cached_locate". Tracing is sampled effectively never, so the
// measurement is the locate path itself, not the recorder.
func CachedLocate(totalOps int) (Result, error) {
	h, err := NewHarness(Config{
		ReadFraction: 1.0,
		CacheTTL:     time.Hour,
		TraceSample:  1 << 30,
	})
	if err != nil {
		return Result{}, err
	}
	defer h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Warm every worker's client cache over the whole population.
	for _, client := range h.clients {
		for _, agent := range h.agents {
			if _, err := client.Locate(ctx, agent); err != nil {
				return Result{}, fmt.Errorf("bench: warm locate %s: %w", agent, err)
			}
		}
	}
	res := h.Run(totalOps)
	res.Name = "million/cached_locate"
	return res, nil
}
