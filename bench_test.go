// Benchmarks regenerating the paper's evaluation (one benchmark family per
// figure) plus ablations for the design choices DESIGN.md calls out.
//
// Figure benchmarks measure exactly the paper's metric — the response time
// of a location query against a live, roaming TAgent population — as ns/op:
//
//	go test -bench 'BenchmarkFigure7' -benchmem .
//
// The workload durations are scaled down (residence 100ms instead of the
// paper's 500ms) so a full sweep fits in a benchmark run; the shape across
// sub-benchmarks is the figure. cmd/locsim runs the same experiments at
// full paper scale with the complete measurement protocol.
package agentloc_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"agentloc/internal/centralized"
	"agentloc/internal/consistent"
	"agentloc/internal/core"
	"agentloc/internal/forwarding"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
	"agentloc/internal/workload"
)

// benchEnv is a deployed scheme plus a roaming population.
type benchEnv struct {
	nodes   []*platform.Node
	net     *transport.Network
	client  workload.LocationClient
	service *core.Service // nil for the centralized scheme
	agents  []ids.AgentID
}

func (e *benchEnv) close() {
	for _, n := range e.nodes {
		go n.Close()
	}
	// Network close waits for in-flight deliveries, after which node
	// closes finish quickly; small grace keeps teardown bounded.
	time.Sleep(50 * time.Millisecond)
	e.net.Close()
}

// newBenchEnv deploys a scheme and a TAgent population and waits for the
// system to settle (registration plus initial rehashing).
func newBenchEnv(b *testing.B, scheme workload.Scheme, tagents int, residence time.Duration) *benchEnv {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	net := transport.NewNetwork(transport.NetworkConfig{
		Latency: transport.LANLatency(100 * time.Microsecond),
	})
	const numNodes = 5
	nodes := make([]*platform.Node, numNodes)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("bn-%d", i)), Link: net})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
	}
	env := &benchEnv{nodes: nodes, net: net}

	const serviceTime = 2 * time.Millisecond
	var mech workload.MechanismRef
	switch scheme {
	case workload.SchemeHashed:
		cfg := core.DefaultConfig()
		cfg.TMax = 120 // matched to the scaled-up message rates of 100ms residence
		cfg.TMin = 5
		cfg.RateWindow = 500 * time.Millisecond
		cfg.CheckInterval = 100 * time.Millisecond
		cfg.MergeGrace = 5 * time.Second
		cfg.IAgentServiceTime = serviceTime
		svc, err := core.Deploy(ctx, cfg, nodes)
		if err != nil {
			b.Fatal(err)
		}
		env.service = svc
		env.client = svc.ClientFor(nodes[numNodes-1])
		mech = workload.MechanismRef{Scheme: scheme, Hashed: svc.Config()}
	case workload.SchemeCentralized:
		svc, err := centralized.Deploy(ctx, centralized.DefaultConfig(), nodes, serviceTime)
		if err != nil {
			b.Fatal(err)
		}
		env.client = svc.ClientFor(nodes[numNodes-1])
		mech = workload.MechanismRef{Scheme: scheme, Central: svc.Config()}
	}

	pop, err := workload.LaunchTAgents(ctx, mech, nodes, "bench-tagent", tagents, residence)
	if err != nil {
		b.Fatal(err)
	}
	env.agents = pop.Agents

	// Settle: let mobility reach steady state and the hash scheme finish
	// its initial splits.
	time.Sleep(1500 * time.Millisecond)
	return env
}

// benchLocate measures sequential location queries against the live system.
func benchLocate(b *testing.B, env *benchEnv) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := env.agents[r.Intn(len(env.agents))]
		if _, err := env.client.Locate(ctx, target); err != nil {
			b.Fatalf("locate %s: %v", target, err)
		}
	}
	b.StopTimer()
	if env.service != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		if stats, err := env.service.Stats(sctx); err == nil {
			b.ReportMetric(float64(stats.NumIAgents), "iagents")
		}
		scancel()
	}
}

// BenchmarkFigure7 regenerates Experiment I (location time vs number of
// TAgents) as a benchmark family: ns/op is the location time; the growth of
// the centralized series against the flat hashed series is the figure.
func BenchmarkFigure7(b *testing.B) {
	const residence = 100 * time.Millisecond // paper: 500ms, scaled ×0.2
	for _, scheme := range []workload.Scheme{workload.SchemeCentralized, workload.SchemeHashed} {
		for _, n := range []int{10, 20, 30, 50, 100} {
			b.Run(fmt.Sprintf("%s/tagents=%d", scheme, n), func(b *testing.B) {
				env := newBenchEnv(b, scheme, n, residence)
				defer env.close()
				benchLocate(b, env)
			})
		}
	}
}

// BenchmarkFigure8 regenerates Experiment II (location time vs mobility):
// 20 TAgents, residence time swept; the centralized series degrades as
// residence shrinks while the hashed series stays flat.
func BenchmarkFigure8(b *testing.B) {
	const tagents = 20
	for _, scheme := range []workload.Scheme{workload.SchemeCentralized, workload.SchemeHashed} {
		for _, residence := range []time.Duration{
			10 * time.Millisecond,
			20 * time.Millisecond,
			50 * time.Millisecond,
			100 * time.Millisecond,
			200 * time.Millisecond,
		} {
			b.Run(fmt.Sprintf("%s/residence=%v", scheme, residence), func(b *testing.B) {
				env := newBenchEnv(b, scheme, tagents, residence)
				defer env.close()
				benchLocate(b, env)
			})
		}
	}
}

// BenchmarkAblationSplitPolicy quantifies the design choice behind complex
// splits (paper §4.1: using unused label bits "would result in more
// balanced hash trees or in other words in using shorter prefixes"). It
// grows a tree to 64 leaves under both policies after merges have created
// multi-bit labels, and reports the mean leaf depth: lower is better, and
// the complex-first policy must win.
func BenchmarkAblationSplitPolicy(b *testing.B) {
	grow := func(complexFirst bool) float64 {
		tree := hashtree.New("ia-0")
		next := 1
		r := rand.New(rand.NewSource(3))
		// Seed history: splits followed by merges leave unused bits in
		// labels for the complex policy to reclaim.
		for i := 0; i < 24; i++ {
			leaves := tree.IAgents()
			target := leaves[r.Intn(len(leaves))]
			if i%3 == 2 && len(leaves) > 2 {
				nt, _, err := tree.Merge(target)
				if err == nil {
					tree = nt
				}
				continue
			}
			cands, err := tree.SplitCandidates(target, 4)
			if err != nil {
				b.Fatal(err)
			}
			nt, err := tree.ApplySplit(cands[len(cands)-4], fmt.Sprintf("ia-%d", next)) // simple m=1
			if err != nil {
				b.Fatal(err)
			}
			tree, next = nt, next+1
		}
		for tree.NumLeaves() < 64 {
			leaves := tree.IAgents()
			target := leaves[r.Intn(len(leaves))]
			cands, err := tree.SplitCandidates(target, 4)
			if err != nil {
				b.Fatal(err)
			}
			pick := -1
			for i, c := range cands {
				if complexFirst && c.Kind == hashtree.SplitComplex {
					pick = i
					break
				}
				if c.Kind == hashtree.SplitSimple {
					pick = i
					break
				}
			}
			nt, err := tree.ApplySplit(cands[pick], fmt.Sprintf("ia-%d", next))
			if err != nil {
				b.Fatal(err)
			}
			tree, next = nt, next+1
		}
		total := 0
		for _, l := range tree.Leaves() {
			total += l.Depth
		}
		return float64(total) / float64(tree.NumLeaves())
	}
	for _, policy := range []struct {
		name         string
		complexFirst bool
	}{{"complex-first", true}, {"simple-only", false}} {
		b.Run(policy.name, func(b *testing.B) {
			var depth float64
			for i := 0; i < b.N; i++ {
				depth = grow(policy.complexFirst)
			}
			b.ReportMetric(depth, "avg-leaf-depth")
		})
	}
}

// BenchmarkAblationPropagation compares the paper's on-demand hash-copy
// refresh (§4.3) against eager broadcast after every rehash. Each iteration
// performs one rehash and then one locate through a previously warmed
// LHAgent: on-demand pays a refresh round trip on the first stale hit,
// eager pays broadcast cost inside the rehash.
func BenchmarkAblationPropagation(b *testing.B) {
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"on-demand", false}, {"eager", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()
			net := transport.NewNetwork(transport.NetworkConfig{
				Latency: transport.FixedLatency(100 * time.Microsecond),
			})
			defer net.Close()
			nodes := make([]*platform.Node, 3)
			for i := range nodes {
				n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("ab-%d", i)), Link: net})
				if err != nil {
					b.Fatal(err)
				}
				defer n.Close()
				nodes[i] = n
			}
			cfg := core.DefaultConfig()
			cfg.TMax = 1e9 // rehash only on explicit request
			cfg.TMin = 0
			cfg.IAgentServiceTime = 0
			cfg.EagerPropagation = mode.eager
			svc, err := core.Deploy(ctx, cfg, nodes)
			if err != nil {
				b.Fatal(err)
			}
			cfg = svc.Config()

			client := svc.ClientFor(nodes[2])
			agents := make([]ids.AgentID, 24)
			perAgent := make(map[ids.AgentID]uint64, len(agents))
			for i := range agents {
				agents[i] = ids.AgentID(fmt.Sprintf("ab-agent-%d", i))
				if _, err := client.Register(ctx, agents[i]); err != nil {
					b.Fatal(err)
				}
				perAgent[agents[i]] = 5
			}

			r := rand.New(rand.NewSource(7))
			version := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One rehash: split a random IAgent (merging back keeps
				// the tree bounded).
				sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
				stats, err := svc.Stats(sctx)
				scancel()
				if err != nil {
					b.Fatal(err)
				}
				var resp core.RehashResp
				if stats.NumIAgents >= 8 {
					// Merge a random IAgent.
					var target ids.AgentID
					for ia := range stats.Locations {
						target = ia
						break
					}
					err = nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, core.KindRequestMerge,
						core.RequestMergeReq{IAgent: target, HashVersion: version}, &resp)
				} else {
					var target ids.AgentID
					for ia := range stats.Locations {
						target = ia
						break
					}
					err = nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, core.KindRequestSplit,
						core.RequestSplitReq{IAgent: target, HashVersion: version, Rate: 999, PerAgent: perAgent}, &resp)
				}
				if err != nil {
					b.Fatal(err)
				}
				if resp.HashVersion > version {
					version = resp.HashVersion
				}
				// First locate after the rehash, through node-2's LHAgent.
				if _, err := client.Locate(ctx, agents[r.Intn(len(agents))]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Micro-benchmarks for the core data structures on the hot path.

func BenchmarkHashTreeLookup(b *testing.B) {
	tree := hashtree.PaperTree()
	id := ids.AgentID("bench-lookup-agent").Binary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Lookup(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashTreeSplit(b *testing.B) {
	tree := hashtree.PaperTree()
	cands, err := tree.SplitCandidates("IA6", 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.ApplySplit(cands[len(cands)-2], "IA-new"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryRepresentation(b *testing.B) {
	id := ids.AgentID("bench-binary-agent-12345")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = id.Binary()
	}
}

func BenchmarkRPCRoundTrip(b *testing.B) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	server, err := transport.NewPeer(net, "bench-server", func(_ context.Context, _ transport.Addr, _ string, payload []byte) (any, error) {
		return struct{ N int }{N: len(payload)}, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := transport.NewPeer(net, "bench-client", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	req := struct{ Text string }{Text: "ping"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp struct{ N int }
		if err := client.Call(ctx, "bench-server", "echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLoadStats quantifies the paper's §4.1 statistics
// granularity trade-off: exact per-agent counts against the per-bit vector a
// leaf sends (the load of the agents with id bit i set, for each of the 64
// bits, plus the total). Reported metrics: the gob-encoded split-request size
// each form ships to the HAgent, and the true load deviation of the split the
// HAgent picks from it (lower is better for both). The vector answers every
// candidate exactly, so the deviation is the same for both forms.
func BenchmarkAblationLoadStats(b *testing.B) {
	// A 500-agent population with skewed loads.
	r := rand.New(rand.NewSource(13))
	perAgent := make(map[ids.AgentID]uint64, 500)
	vector := core.RequestSplitReq{IAgent: "A", HashVersion: 1, Rate: 999}
	gen := ids.NewGenerator("abl")
	var total float64
	for i := 0; i < 500; i++ {
		id := gen.Next()
		load := uint64(r.Intn(20) + 1)
		if i%17 == 0 {
			load *= 10 // a few hot agents
		}
		perAgent[id] = load
		total += float64(load)
		h := id.Hash64()
		for bit := range vector.BitLoad {
			if h>>(63-bit)&1 == 1 {
				vector.BitLoad[bit] += load
			}
		}
		vector.Total += load
	}
	tree := hashtree.New("A")
	cands, err := tree.SplitCandidates("A", 8)
	if err != nil {
		b.Fatal(err)
	}
	trueDeviation := func(c hashtree.SplitCandidate) float64 {
		var moved float64
		for agent, n := range perAgent {
			if agent.Binary().At(c.BitPos) == c.NewOnBit {
				moved += float64(n)
			}
		}
		frac := moved / total
		if frac < 0.5 {
			return 0.5 - frac
		}
		return frac - 0.5
	}

	for _, mode := range []struct {
		name string
		req  core.RequestSplitReq
	}{
		{"exact-map", core.RequestSplitReq{IAgent: "A", HashVersion: 1, Rate: 999, PerAgent: perAgent}},
		{"bit-vector", vector},
	} {
		b.Run(mode.name, func(b *testing.B) {
			payload, err := transport.Encode(mode.req)
			if err != nil {
				b.Fatal(err)
			}
			var dev float64
			for i := 0; i < b.N; i++ {
				c, ok := core.ChooseSplitForTest(cands, mode.req, 0.15)
				if !ok {
					b.Fatal("no candidate chosen")
				}
				dev = trueDeviation(c)
			}
			b.ReportMetric(float64(len(payload)), "msg-bytes")
			b.ReportMetric(dev, "true-split-dev")
		})
	}
}

// BenchmarkAblationAdaptivity substantiates the paper's §6 argument against
// static consistent hashing: "consistent hashing distributes data items to
// nodes so that each node receives roughly the same number of items.
// However, in our case, our goal is to balance the total workload". A group
// of hot agents that happens to hash to one tracker saturates it under a
// static ring, while the adaptive mechanism splits until the hot agents are
// spread over their own IAgents. ns/op is the hot-agent location time.
func BenchmarkAblationAdaptivity(b *testing.B) {
	const (
		numNodes    = 4
		serviceTime = 3 * time.Millisecond
		hotCount    = 6
		loaders     = 4
	)

	// Pick hot agent ids that all land on the static scheme's first
	// tracker — item-balanced is not load-balanced.
	ringTrackers := make([]ids.AgentID, 4)
	for i := range ringTrackers {
		ringTrackers[i] = ids.AgentID(fmt.Sprintf("chash-%d", i))
	}
	ring, err := consistent.NewRing(ringTrackers, 32)
	if err != nil {
		b.Fatal(err)
	}
	var hot []ids.AgentID
	for i := 0; len(hot) < hotCount && i < 100000; i++ {
		id := ids.AgentID(fmt.Sprintf("hot-%d", i))
		if ring.Owner(id) == ringTrackers[0] {
			hot = append(hot, id)
		}
	}
	if len(hot) < hotCount {
		b.Fatal("could not find colliding hot agents")
	}

	run := func(b *testing.B, client workload.LocationClient) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		// Register the hot agents.
		for _, id := range hot {
			if _, err := client.Register(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
		// Background load hammering the hot agents.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < loaders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(w)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, _ = client.Locate(ctx, hot[r.Intn(len(hot))])
				}
			}(w)
		}
		// Let the adaptive scheme rehash.
		time.Sleep(2 * time.Second)

		r := rand.New(rand.NewSource(99))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Locate(ctx, hot[r.Intn(len(hot))]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	}

	newNodes := func(b *testing.B) ([]*platform.Node, func()) {
		net := transport.NewNetwork(transport.NetworkConfig{
			Latency: transport.LANLatency(100 * time.Microsecond),
		})
		nodes := make([]*platform.Node, numNodes)
		for i := range nodes {
			n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("ad-%d", i)), Link: net})
			if err != nil {
				b.Fatal(err)
			}
			nodes[i] = n
		}
		return nodes, func() {
			for _, n := range nodes {
				go n.Close()
			}
			time.Sleep(50 * time.Millisecond)
			net.Close()
		}
	}

	b.Run("static-consistent-hash", func(b *testing.B) {
		nodes, cleanup := newNodes(b)
		defer cleanup()
		ctx := context.Background()
		svc, err := consistent.Deploy(ctx, nodes, 4, 32, serviceTime)
		if err != nil {
			b.Fatal(err)
		}
		run(b, svc.ClientFor(nodes[numNodes-1]))
	})
	b.Run("adaptive-hashtree", func(b *testing.B) {
		nodes, cleanup := newNodes(b)
		defer cleanup()
		ctx := context.Background()
		cfg := core.DefaultConfig()
		cfg.TMax = 80
		cfg.TMin = 0
		cfg.RateWindow = 500 * time.Millisecond
		cfg.CheckInterval = 100 * time.Millisecond
		cfg.IAgentServiceTime = serviceTime
		svc, err := core.Deploy(ctx, cfg, nodes)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if stats, err := svc.Stats(sctx); err == nil {
				b.ReportMetric(float64(stats.NumIAgents), "iagents")
			}
			cancel()
		}()
		run(b, svc.ClientFor(nodes[numNodes-1]))
	})
}

// BenchmarkBaselineForwardingChains contrasts the paper's mechanism with
// the Voyager-style forwarding-pointer scheme of §6: after L moves that no
// locate has observed, a forwarding locate must chase L pointers while the
// hash-based locate stays O(1) (every move updated the IAgent). ns/op is
// the location time of the first query after L quiet moves.
func BenchmarkBaselineForwardingChains(b *testing.B) {
	const numNodes = 8
	newNodes := func(b *testing.B) ([]*platform.Node, func()) {
		net := transport.NewNetwork(transport.NetworkConfig{
			Latency: transport.LANLatency(300 * time.Microsecond),
		})
		nodes := make([]*platform.Node, numNodes)
		for i := range nodes {
			n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("fw-%d", i)), Link: net})
			if err != nil {
				b.Fatal(err)
			}
			nodes[i] = n
		}
		return nodes, func() {
			for _, n := range nodes {
				go n.Close()
			}
			time.Sleep(50 * time.Millisecond)
			net.Close()
		}
	}

	type mover interface {
		Register(ctx context.Context, self ids.AgentID) (core.Assignment, error)
		MoveNotify(ctx context.Context, self ids.AgentID, cached core.Assignment) (core.Assignment, error)
	}
	type locator interface {
		Locate(ctx context.Context, target ids.AgentID) (platform.NodeID, error)
	}

	run := func(b *testing.B, chain int, clientAt func([]*platform.Node, int) (mover, locator)) {
		nodes, cleanup := newNodes(b)
		defer cleanup()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		mv, _ := clientAt(nodes, 0)
		assign, err := mv.Register(ctx, "chained")
		if err != nil {
			b.Fatal(err)
		}
		at := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// L quiet moves around the ring.
			for h := 0; h < chain; h++ {
				at = (at + 1) % numNodes
				mv, _ = clientAt(nodes, at)
				assign, err = mv.MoveNotify(ctx, "chained", assign)
				if err != nil {
					b.Fatal(err)
				}
			}
			_, loc := clientAt(nodes, (at+3)%numNodes)
			b.StartTimer()
			if _, err := loc.Locate(ctx, "chained"); err != nil {
				b.Fatal(err)
			}
		}
	}

	// Chains stay shorter than the ring: revisiting a node overwrites its
	// pointer and artificially shortens the chase.
	for _, chain := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("forwarding/moves=%d", chain), func(b *testing.B) {
			nodesOnce := sync.Once{}
			var svc *forwarding.Service
			run(b, chain, func(nodes []*platform.Node, i int) (mover, locator) {
				nodesOnce.Do(func() {
					s, err := forwarding.Deploy(context.Background(), forwarding.DefaultConfig(), nodes, time.Millisecond)
					if err != nil {
						b.Fatal(err)
					}
					svc = s
				})
				c := svc.ClientFor(nodes[i])
				return c, c
			})
		})
		b.Run(fmt.Sprintf("hashed/moves=%d", chain), func(b *testing.B) {
			nodesOnce := sync.Once{}
			var svc *core.Service
			run(b, chain, func(nodes []*platform.Node, i int) (mover, locator) {
				nodesOnce.Do(func() {
					cfg := core.DefaultConfig()
					cfg.TMax = 1e9
					cfg.TMin = 0
					cfg.IAgentServiceTime = time.Millisecond
					s, err := core.Deploy(context.Background(), cfg, nodes)
					if err != nil {
						b.Fatal(err)
					}
					svc = s
				})
				c := svc.ClientFor(nodes[i])
				return c, c
			})
		})
	}
}
