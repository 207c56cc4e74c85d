package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

const (
	numNodes  = 3
	numLeaves = 4
	// numTags capability tags exist; a capability-advertising agent carries
	// two adjacent ones, so a two-tag AND query has capEvery-spaced matches.
	numTags = 32
	// Every capEvery-th agent (offset capOffset) advertises capabilities.
	// The share is small because each capability mutation costs the leaf one
	// fsynced delta file (core.persistCapDelta): at 1 in 1024 that is ~1k
	// fsyncs per set-up, at 1 in 1 it would be a million.
	capEvery  = 1024
	capOffset = 512
	// loaders is how many goroutines per node feed the update batcher during
	// the bulk load; each blocks until its update's batch is acked, so this
	// is also the largest batch one flush can carry.
	loaders = 512
)

// clusterOpts is what differs between workloads and between the traced and
// the untraced run; everything else about the cluster is fixed.
type clusterOpts struct {
	agents       int
	workDir      string
	traced       bool // attach a span recorder (sample 1) and a registry
	syncOnAppend bool
	cacheTTL     time.Duration
	cacheSize    int
	heartbeat    time.Duration
}

// cluster is three platform nodes in this process, each behind its own
// transport.TCP listener on 127.0.0.1 and its own snapshot store: traffic
// between nodes crosses real loopback sockets, not a network link.
type cluster struct {
	opts   clusterOpts
	dir    string // this cluster's own directory under opts.workDir
	cfg    core.Config
	nodes  []*platform.Node
	links  []*transport.TCP
	stores []*snapshot.Store
	svc    *core.Service
	reg    *metrics.Registry // nil when untraced
	agg    *spanAgg          // nil when untraced
	recs   []*trace.Recorder

	ids   []ids.AgentID
	model []atomic.Uint32 // see "the generator's model" in workload.go

	setupSeconds float64
	heapBefore   uint64 // HeapAlloc before set-up, the generator's ids and model already live
}

func nodeID(i int) platform.NodeID { return platform.NodeID(fmt.Sprintf("n%d", i)) }

// makeIDs builds the population's ids "a-0000000"… as substrings of one
// backing string, so the generator's own footprint is two flat allocations.
func makeIDs(n int) []ids.AgentID {
	var sb strings.Builder
	sb.Grow(n * 9)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "a-%07d", i)
	}
	all := sb.String()
	out := make([]ids.AgentID, n)
	for i := range out {
		out[i] = ids.AgentID(all[i*9 : i*9+9])
	}
	return out
}

func hasCaps(i int) bool { return i%capEvery == capOffset }

// capsOf returns the two tags agent i advertises (only if hasCaps(i)).
func capsOf(i int) []string {
	k := i / capEvery
	return []string{tagName(k % numTags), tagName((k + 1) % numTags)}
}

func tagName(t int) string { return fmt.Sprintf("cap-%02d", t) }

// bootNodes opens the stores, listeners and nodes and wires the routes. It is
// shared by the first boot and by the cold restart of the durability check.
func (c *cluster) bootNodes() error {
	o := c.opts
	c.nodes, c.links, c.stores, c.recs = nil, nil, nil, nil
	for i := 0; i < numNodes; i++ {
		store, err := snapshot.Open(filepath.Join(c.dir, string(nodeID(i))), c.reg)
		if err != nil {
			return err
		}
		c.stores = append(c.stores, store)
		link, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0", Metrics: c.reg})
		if err != nil {
			return err
		}
		c.links = append(c.links, link)
		var rec *trace.Recorder
		if o.traced {
			rec = trace.NewRecorder(string(nodeID(i)), 2048, 1)
			rec.SetHooks(c.agg.observe, nil)
			c.recs = append(c.recs, rec)
		}
		node, err := platform.NewNode(platform.Config{
			ID:      nodeID(i),
			Link:    transport.Instrument(link, c.reg),
			Tracer:  rec,
			Metrics: c.reg,
			Durable: store,
		})
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, node)
	}
	for i, l := range c.links {
		for j, peer := range c.links {
			if i != j {
				l.AddRoute(nodeID(j).Addr(), peer.ListenAddr())
			}
		}
	}
	return nil
}

// newCluster boots the nodes, deploys the mechanism, forces the tree to four
// leaves and bulk-loads the population. The wall time of all of it is
// setup_s.
func newCluster(o clusterOpts) (c *cluster, err error) {
	c = &cluster{opts: o, ids: makeIDs(o.agents), model: make([]atomic.Uint32, o.agents)}
	for i := range c.model {
		c.model[i].Store(uint32(i % numNodes))
	}
	if o.traced {
		c.reg = metrics.New()
		c.agg = newSpanAgg()
	}
	if err := os.RemoveAll(o.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	// A directory no other cluster of this process has used: see close.
	if c.dir, err = os.MkdirTemp(o.workDir, "cluster-"); err != nil {
		return nil, err
	}
	// The generator's ids and model are live from here on, so the heap
	// growth measured below is the program's alone.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	c.heapBefore = before.HeapAlloc
	start := time.Now()
	defer func() {
		if err != nil {
			c.close()
		}
	}()

	if err := c.bootNodes(); err != nil {
		return c, err
	}
	cfg := core.DefaultConfig()
	cfg.IAgentServiceTime = 0
	// The benchmark, not the rate estimator, owns the topology.
	cfg.TMax, cfg.TMin = 1e12, 0
	cfg.LocateCacheTTL, cfg.LocateCacheSize = o.cacheTTL, o.cacheSize
	cfg.HeartbeatInterval = o.heartbeat
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if c.svc, err = core.Deploy(ctx, cfg, c.nodes); err != nil {
		return c, err
	}
	c.cfg = c.svc.Config()

	// Seed a few agents so the splits below hand real entries over.
	for i := 0; i < 8; i++ {
		if _, err := c.svc.ClientFor(c.nodes[i%numNodes]).Register(ctx, c.ids[i]); err != nil {
			return c, fmt.Errorf("seed %s: %w", c.ids[i], err)
		}
	}
	for _, leaf := range []ids.AgentID{"iagent-1", "iagent-1", "iagent-2"} {
		if err := c.forceSplit(ctx, leaf); err != nil {
			return c, err
		}
	}
	st, err := c.hashState(ctx)
	if err != nil {
		return c, err
	}
	if n := st.Tree.NumLeaves(); n != numLeaves {
		return c, fmt.Errorf("setup: tree has %d leaves, want %d", n, numLeaves)
	}
	if err := c.bulkLoad(ctx, st); err != nil {
		return c, err
	}
	// The load runs with the locnode default flush policy and ends on one
	// Sync; the workload's own policy applies from here on. No append is in
	// flight while the field changes.
	for _, s := range c.stores {
		if err := s.Sync(); err != nil {
			return c, err
		}
		s.SyncOnAppend = o.syncOnAppend
	}
	c.setupSeconds = time.Since(start).Seconds()
	return c, nil
}

// heapPerAgent is what the program retains per registered agent after
// set-up: the heap's growth across newCluster, after a collection. With
// heartbeats on, the leaves are still pushing their first full checkpoints
// to their siblings, and the buffers in flight are 3 % of the heap one
// moment and gone the next; what is retained is then the lowest of a few
// readings, one heartbeat apart.
func (c *cluster) heapPerAgent() float64 {
	readings := 1
	if c.opts.heartbeat > 0 {
		readings = 5
	}
	var low float64
	for i := 0; i < readings; i++ {
		if i > 0 {
			time.Sleep(c.opts.heartbeat)
		}
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		perAgent := (float64(m.HeapAlloc) - float64(c.heapBefore)) / float64(c.opts.agents)
		if i == 0 || perAgent < low {
			low = perAgent
		}
	}
	return low
}

// hashState pulls the primary hash state from the HAgent.
func (c *cluster) hashState(ctx context.Context) (*core.State, error) {
	var resp core.GetHashResp
	if err := c.nodes[0].CallAgent(ctx, c.cfg.HAgentNode, c.cfg.HAgent, core.KindGetHash, core.GetHashReq{}, &resp); err != nil {
		return nil, fmt.Errorf("get hash: %w", err)
	}
	return core.FromDTO(resp.State)
}

// forceSplit impersonates an overloaded leaf: it reports even per-agent load
// over a sample of the ids the leaf owns, so the HAgent splits it in half.
func (c *cluster) forceSplit(ctx context.Context, leaf ids.AgentID) error {
	st, err := c.hashState(ctx)
	if err != nil {
		return err
	}
	load := make(map[ids.AgentID]uint64)
	for _, id := range c.ids {
		if owner, _, err := st.OwnerOf(id); err == nil && owner == leaf {
			load[id] = 5
		}
		if len(load) == 256 {
			break
		}
	}
	var resp core.RehashResp
	req := core.RequestSplitReq{IAgent: leaf, HashVersion: st.Version(), Rate: 999, PerAgent: load}
	if err := c.nodes[0].CallAgent(ctx, c.cfg.HAgentNode, c.cfg.HAgent, core.KindRequestSplit, req, &resp); err != nil {
		return fmt.Errorf("split %s: %w", leaf, err)
	}
	if resp.Status != core.StatusOK {
		return fmt.Errorf("split %s: status %v", leaf, resp.Status)
	}
	return nil
}

// forceMerge impersonates an underloaded leaf asking to be merged away.
func (c *cluster) forceMerge(ctx context.Context, leaf ids.AgentID) error {
	st, err := c.hashState(ctx)
	if err != nil {
		return err
	}
	var resp core.RehashResp
	req := core.RequestMergeReq{IAgent: leaf, HashVersion: st.Version()}
	if err := c.nodes[0].CallAgent(ctx, c.cfg.HAgentNode, c.cfg.HAgent, core.KindRequestMerge, req, &resp); err != nil {
		return fmt.Errorf("merge %s: %w", leaf, err)
	}
	if resp.Status != core.StatusOK {
		return fmt.Errorf("merge %s: status %v", leaf, resp.Status)
	}
	return nil
}

// bulkLoad registers agent i at node i mod 3 through the update-batch path:
// one UpdateBatcher per node, fed by enough blocked callers that every flush
// carries a full batch. Assignments come from the hash state directly, so
// the load does not also measure a million whois calls.
func (c *cluster) bulkLoad(ctx context.Context, st *core.State) error {
	var wg sync.WaitGroup
	errs := make(chan error, numNodes*loaders)
	for n := 0; n < numNodes; n++ {
		batcher := core.NewUpdateBatcher(core.NodeCaller{N: c.nodes[n]}, c.cfg, time.Millisecond)
		defer batcher.Close()
		client := c.svc.ClientFor(c.nodes[n]).WithBatcher(batcher)
		for l := 0; l < loaders; l++ {
			wg.Add(1)
			go func(first int) {
				defer wg.Done()
				for i := first; i < len(c.ids); i += numNodes * loaders {
					owner, node, err := st.OwnerOf(c.ids[i])
					if err != nil {
						errs <- err
						return
					}
					assign := core.Assignment{IAgent: owner, Node: node, HashVersion: st.Version()}
					if hasCaps(i) {
						_, err = client.Advertise(ctx, c.ids[i], capsOf(i), assign)
					} else {
						_, err = client.MoveNotify(ctx, c.ids[i], assign)
					}
					if err != nil {
						errs <- fmt.Errorf("load %s: %w", c.ids[i], err)
						return
					}
				}
			}(n + l*numNodes)
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// stopNodes takes the nodes, links and stores down as a killed process
// would. Crash, not Close: after a mixed_rehash window Node.Close takes 10 to
// 20 s, because it stops a node's agents one by one and a leaf whose
// checkpoint push is addressed to a sibling already stopped waits out
// CallTimeout. Crash finishes that teardown in the background; whatever it
// still writes goes to this cluster's own, by then removed, directory.
func (c *cluster) stopNodes() {
	for _, n := range c.nodes {
		n.Crash()
	}
	for _, l := range c.links {
		l.Close()
	}
	for _, s := range c.stores {
		s.Close()
	}
}

func (c *cluster) close() {
	c.stopNodes()
	os.RemoveAll(c.dir)
}
