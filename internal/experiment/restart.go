package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
)

// RestartResult reports the full-cluster restart-recovery scenario: how much
// state went down with the cluster and how much of it came back from disk.
type RestartResult struct {
	Nodes        int
	Agents       int // live registered agents at crash time
	Moves        int // post-snapshot moves (live only in the WAL tails)
	Deregistered int
	RestartAll   bool

	RecoveredHAgents int
	RecoveredIAgents int
	Entries          int // location entries rebuilt from sections and deltas
	Replayed         int // WAL records replayed
	Skipped          int // corrupt/unreadable frames tolerated

	PreVersion, PostVersion uint64

	Verified int // agents located at their exact last-acknowledged home
	Stale    int // agents located anywhere else (must be 0)
}

// RunRestart drives the durability scenario on a simulated LAN: a cluster
// with per-node snapshot stores under dataDir serves registrations, moves
// and deregistrations, one node writes a full snapshot mid-workload, and —
// when restartAll is set — every node is then crashed and cold-started from
// disk. The scenario fails if any agent resolves to a stale home afterwards.
// With restartAll off it is a persistence dry run: the same workload and
// verification, no crash.
func RunRestart(ctx context.Context, p Params, dataDir string, restartAll bool, w io.Writer) (RestartResult, error) {
	numNodes := p.NumNodes
	if numNodes < 2 {
		return RestartResult{}, fmt.Errorf("experiment: restart scenario needs >= 2 nodes, got %d", numNodes)
	}
	cfg := p.coreConfig()
	if cfg.HeartbeatInterval <= 0 {
		// Checkpoint deltas ride the heartbeat; the scenario wants them on.
		cfg.HeartbeatInterval = p.scaled(100 * time.Millisecond)
	}

	net := transport.NewNetwork(transport.NetworkConfig{
		Latency:  transport.LANLatency(p.NetLatency),
		Jitter:   p.NetJitter,
		DropProb: p.DropProb,
		Seed:     p.Seed,
	})
	defer net.Close()

	buildNode := func(i int, reg *metrics.Registry) (*platform.Node, *snapshot.Store, error) {
		id := platform.NodeID(fmt.Sprintf("node-%d", i))
		store, err := snapshot.Open(filepath.Join(dataDir, string(id)), reg)
		if err != nil {
			return nil, nil, err
		}
		store.SyncOnAppend = true
		n, err := platform.NewNode(platform.Config{ID: id, Link: net, Metrics: reg, Durable: store})
		if err != nil {
			store.Close()
			return nil, nil, err
		}
		return n, store, nil
	}

	reg := metrics.New()
	nodes := make([]*platform.Node, numNodes)
	stores := make([]*snapshot.Store, numNodes)
	for i := range nodes {
		n, store, err := buildNode(i, reg)
		if err != nil {
			return RestartResult{}, fmt.Errorf("experiment: node %d: %w", i, err)
		}
		nodes[i] = n
		stores[i] = store
	}
	defer func() {
		for i := range nodes {
			nodes[i].Close()
			stores[i].Close()
		}
	}()

	svc, err := core.Deploy(ctx, cfg, nodes)
	if err != nil {
		return RestartResult{}, err
	}
	cfg = svc.Config()

	res := RestartResult{Nodes: numNodes, RestartAll: restartAll}

	// Workload: register a population, snapshot one node mid-stream, then
	// keep mutating so the tail lives only in the WALs.
	count := p.TAgentsII
	if count < 3*numNodes {
		count = 3 * numNodes
	}
	homes := make(map[ids.AgentID]platform.NodeID, count)
	for i := 0; i < count; i++ {
		n := nodes[i%numNodes]
		agent := ids.AgentID(fmt.Sprintf("ragent-%d", i))
		if _, err := svc.ClientFor(n).Register(ctx, agent); err != nil {
			return res, fmt.Errorf("experiment: register %s: %w", agent, err)
		}
		homes[agent] = n.ID()
	}

	// Node 0 hosts the HAgent and the initial IAgent: its full snapshot plus
	// WAL tail is the interesting recovery mix.
	persister, err := core.StartPersister(nodes[0], cfg, time.Hour)
	if err != nil {
		return res, err
	}
	if _, err := persister.WriteFullSnapshot(); err != nil {
		persister.Stop()
		return res, fmt.Errorf("experiment: full snapshot: %w", err)
	}
	if err := persister.Stop(); err != nil {
		return res, fmt.Errorf("experiment: final full snapshot: %w", err)
	}

	for i := 0; i < count; i++ {
		agent := ids.AgentID(fmt.Sprintf("ragent-%d", i))
		switch {
		case i%4 == 0:
			target := nodes[(i+1)%numNodes].ID()
			if _, err := svc.ClientFor(nodes[0]).MoveNotifyTo(ctx, agent, target, core.Assignment{}); err != nil {
				return res, fmt.Errorf("experiment: move %s: %w", agent, err)
			}
			homes[agent] = target
			res.Moves++
		case i%7 == 3:
			if err := svc.ClientFor(nodes[1]).Deregister(ctx, agent, core.Assignment{}); err != nil {
				return res, fmt.Errorf("experiment: deregister %s: %w", agent, err)
			}
			delete(homes, agent)
			res.Deregistered++
		}
	}
	res.Agents = len(homes)

	pre, err := svc.Stats(ctx)
	if err != nil {
		return res, err
	}
	res.PreVersion = pre.HashVersion
	res.PostVersion = pre.HashVersion

	// Let a checkpoint round reach the stores before pulling the plug.
	select {
	case <-time.After(4 * cfg.HeartbeatInterval):
	case <-ctx.Done():
		return res, ctx.Err()
	}

	verifyNodes := nodes
	if restartAll {
		fmt.Fprintf(w, "restart scenario: killing all %d nodes...\n", numNodes)
		for _, n := range nodes {
			n.Crash()
		}
		reg2 := metrics.New()
		for i := range nodes {
			stores[i].Close()
			n, store, err := buildNode(i, reg2)
			if err != nil {
				return res, fmt.Errorf("experiment: rebuild node %d: %w", i, err)
			}
			nodes[i] = n
			stores[i] = store
			rep, err := core.RecoverNode(n, cfg)
			if err != nil {
				return res, fmt.Errorf("experiment: recover node %d: %w", i, err)
			}
			res.RecoveredHAgents += len(rep.HAgents)
			res.RecoveredIAgents += len(rep.IAgents)
			res.Entries += rep.Entries
			res.Replayed += rep.Replayed
			res.Skipped += rep.Skipped
			if !n.Hosts(core.LHAgentID(n.ID())) {
				if err := n.Launch(core.LHAgentID(n.ID()), &core.LHAgentBehavior{Cfg: cfg}); err != nil {
					return res, err
				}
			}
		}
		verifyNodes = nodes
		var post core.HashStatsResp
		if err := nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, core.KindHashStats, nil, &post); err != nil {
			return res, fmt.Errorf("experiment: post-restart stats: %w", err)
		}
		res.PostVersion = post.HashVersion
		fmt.Fprintf(w, "recovered %d HAgent(s), %d IAgent(s), %d entries, %d WAL records replayed (%d frames skipped)\n",
			res.RecoveredHAgents, res.RecoveredIAgents, res.Entries, res.Replayed, res.Skipped)
		fmt.Fprintf(w, "hash version fenced v%d -> v%d\n", res.PreVersion, res.PostVersion)
	}

	// Zero stale answers: every live agent at its exact last-acknowledged
	// home, from a cold client; deregistered agents stay gone.
	client := core.NewClient(core.NodeCaller{N: verifyNodes[numNodes-1]}, cfg)
	for agent, want := range homes {
		got, err := client.Locate(ctx, agent)
		if err != nil {
			return res, fmt.Errorf("experiment: locate %s after restart: %w", agent, err)
		}
		if got == want {
			res.Verified++
		} else {
			res.Stale++
			fmt.Fprintf(w, "STALE: %s located at %s, recorded home %s\n", agent, got, want)
		}
	}
	for i := 0; i < count; i++ {
		agent := ids.AgentID(fmt.Sprintf("ragent-%d", i))
		if _, ok := homes[agent]; ok {
			continue
		}
		if _, err := client.Locate(ctx, agent); !errors.Is(err, core.ErrNotRegistered) {
			return res, fmt.Errorf("experiment: deregistered %s still resolves (err %v)", agent, err)
		}
	}
	fmt.Fprintf(w, "verified %d/%d agents at exact homes, %d stale answers; %d deregistered stayed gone\n",
		res.Verified, len(homes), res.Stale, res.Deregistered)
	if res.Stale > 0 {
		return res, fmt.Errorf("experiment: %d stale answers after restart", res.Stale)
	}
	if restartAll && res.Replayed == 0 {
		return res, fmt.Errorf("experiment: restart recovery replayed no WAL records; the post-snapshot churn was lost")
	}
	return res, nil
}
