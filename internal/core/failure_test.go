package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// newLossyCluster deploys the mechanism over a network that drops messages.
func newLossyCluster(t *testing.T, cfg Config, numNodes int, dropProb float64) (*testCluster, *transport.Network) {
	t.Helper()
	goroutinesReturn(t)
	net := transport.NewNetwork(transport.NetworkConfig{DropProb: dropProb, Seed: 99})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, numNodes)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	releasesAll(t, nodes)
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{nodes: nodes, service: svc}, net
}

// eventually retries op with short per-attempt timeouts until it succeeds
// or the deadline passes — the application-level retry a lossy network
// demands (the protocol guarantees staleness recovery, not transport
// reliability).
func eventually(t *testing.T, deadline time.Duration, op func(ctx context.Context) error) {
	t.Helper()
	end := time.Now().Add(deadline)
	var err error
	for time.Now().Before(end) {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		err = op(ctx)
		cancel()
		if err == nil {
			return
		}
	}
	t.Fatalf("never succeeded within %v: %v", deadline, err)
}

func TestProtocolSurvivesMessageLoss(t *testing.T) {
	// 15% loss on every link: individual calls time out, but retried
	// operations must converge and stay correct.
	c, _ := newLossyCluster(t, quietConfig(), 3, 0.15)

	agents := make([]ids.AgentID, 8)
	for i := range agents {
		agents[i] = ids.AgentID(fmt.Sprintf("lossy-%d", i))
		n := c.nodes[i%len(c.nodes)]
		client := c.service.ClientFor(n)
		agent := agents[i]
		eventually(t, 20*time.Second, func(ctx context.Context) error {
			_, err := client.Register(ctx, agent)
			return err
		})
	}

	querier := c.service.ClientFor(c.nodes[2])
	for i, agent := range agents {
		want := c.nodes[i%len(c.nodes)].ID()
		agent := agent
		var got platform.NodeID
		eventually(t, 20*time.Second, func(ctx context.Context) error {
			var err error
			got, err = querier.Locate(ctx, agent)
			return err
		})
		if got != want {
			t.Errorf("locate %s = %s, want %s", agent, got, want)
		}
	}
}

func TestLocateFailsDuringPartitionAndHealsAfter(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, 3)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	svc, err := Deploy(context.Background(), quietConfig(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	// Register from node-1 (IAgent and HAgent live on node-0) and warm
	// node-2's LHAgent.
	if _, err := svc.ClientFor(nodes[1]).Register(ctx, "islander"); err != nil {
		t.Fatal(err)
	}
	querier := svc.ClientFor(nodes[2])
	if _, err := querier.Locate(ctx, "islander"); err != nil {
		t.Fatal(err)
	}

	// Partition the querier's node from the IAgent's node: locates must
	// fail (time out), not return stale garbage silently.
	net.Partition("node-2", "node-0")
	pctx, pcancel := context.WithTimeout(ctx, 300*time.Millisecond)
	_, err = querier.Locate(pctx, "islander")
	pcancel()
	if err == nil {
		t.Fatal("locate succeeded across a partition")
	}

	// Heal: service recovers without intervention.
	net.Heal("node-2", "node-0")
	where, err := querier.Locate(ctx, "islander")
	if err != nil {
		t.Fatalf("locate after heal: %v", err)
	}
	if where != nodes[1].ID() {
		t.Errorf("located at %s, want node-1", where)
	}
}

func TestRehashingSurvivesMessageLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TMax = 30
	cfg.TMin = 0
	cfg.CheckInterval = 30 * time.Millisecond
	cfg.RateWindow = 300 * time.Millisecond
	cfg.IAgentServiceTime = 0
	cfg.CallTimeout = time.Second // fail fast so retries can act
	c, _ := newLossyCluster(t, cfg, 3, 0.05)

	// Register a population (with retries — the network is lossy).
	agents := make([]ids.AgentID, 24)
	homes := make(map[ids.AgentID]platform.NodeID, len(agents))
	for i := range agents {
		agents[i] = ids.AgentID(fmt.Sprintf("lr-%d", i))
		n := c.nodes[i%len(c.nodes)]
		client := c.service.ClientFor(n)
		agent := agents[i]
		eventually(t, 20*time.Second, func(ctx context.Context) error {
			_, err := client.Register(ctx, agent)
			return err
		})
		homes[agent] = n.ID()
	}

	// Drive load until a split happens despite the loss.
	stop := make(chan struct{})
	go func() {
		client := c.service.ClientFor(c.nodes[0])
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			_, _ = client.Locate(ctx, agents[i%len(agents)])
			cancel()
			i++
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	split := false
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		stats, err := c.service.Stats(ctx)
		cancel()
		if err == nil && stats.Splits >= 1 {
			split = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	if !split {
		t.Fatal("no split happened under load on the lossy network")
	}

	// Correctness after rehashing on a lossy network: retried locates
	// return the registered homes.
	querier := c.service.ClientFor(c.nodes[2])
	for agent, home := range homes {
		agent, home := agent, home
		var got platform.NodeID
		eventually(t, 20*time.Second, func(ctx context.Context) error {
			var err error
			got, err = querier.Locate(ctx, agent)
			return err
		})
		if got != home {
			t.Errorf("locate %s = %s, want %s", agent, got, home)
		}
	}
}

// A rehash whose state pushes cannot reach the affected IAgents must neither
// strand them on the old version nor route clients by a hash function whose
// handoffs have not happened: the HAgent keeps publishing the previous
// version, refuses further rehashes, retries the pushes, and publishes once
// they land.
func TestRehashAcrossPartitionConverges(t *testing.T) {
	cfg := quietConfig()
	cfg.CallTimeout = 300 * time.Millisecond
	cfg.HAgentNode = "node-0"
	cfg.PlacementNodes = []platform.NodeID{"node-1"} // every IAgent away from the HAgent
	c, net := newLossyCluster(t, cfg, 3, 0)
	ctx := testCtx(t)
	hagent := func(kind string, req, resp any) {
		t.Helper()
		if err := c.nodes[2].CallAgent(ctx, cfg.HAgentNode, c.service.Config().HAgent, kind, req, resp); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}

	homes := registerMany(t, c, ctx, 24)
	perAgent := make(map[ids.AgentID]uint64, len(homes))
	for agent := range homes {
		perAgent[agent] = 10
	}
	var resp RehashResp
	hagent(KindRequestSplit, RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if resp.Status != StatusOK || resp.HashVersion != 2 {
		t.Fatalf("split = %+v, want OK at v2", resp)
	}

	// Merge iagent-2 away while the HAgent can reach neither IAgent.
	net.Partition("node-0", "node-1")
	hagent(KindRequestMerge, RequestMergeReq{IAgent: "iagent-2", HashVersion: 2}, &resp)
	if resp.Status != StatusOK || resp.HashVersion != 3 {
		t.Fatalf("merge across the partition = %+v, want OK at v3", resp)
	}
	var hash GetHashResp
	hagent(KindGetHash, GetHashReq{}, &hash)
	if st, err := FromDTO(hash.State); err != nil || st.Ver != 2 {
		t.Errorf("published %+v, %v while the merge's pushes are owed, want v2", st, err)
	}
	hagent(KindRequestSplit, RequestSplitReq{IAgent: "iagent-1", HashVersion: 3, Rate: 999, PerAgent: perAgent}, &resp)
	if resp.Status != StatusIgnored {
		t.Errorf("split during an unfinished merge = %v, want ignored", resp.Status)
	}
	// node-2 reaches everyone: under the published version nothing is lost.
	querier := c.service.ClientFor(c.nodes[2])
	for agent, home := range homes {
		if got, err := querier.Locate(ctx, agent); err != nil || got != home {
			t.Errorf("locate %s during the partition = %s, %v; want %s", agent, got, err, home)
		}
	}

	net.HealAll()
	eventually(t, 10*time.Second, func(ctx context.Context) error {
		var hash GetHashResp
		if err := c.nodes[2].CallAgent(ctx, cfg.HAgentNode, c.service.Config().HAgent, KindGetHash, GetHashReq{}, &hash); err != nil {
			return err
		}
		st, err := FromDTO(hash.State)
		if err != nil {
			return err
		}
		if st.Ver != 3 {
			time.Sleep(20 * time.Millisecond)
			return fmt.Errorf("published v%d, want v3", st.Ver)
		}
		return nil
	})
	for _, n := range c.nodes {
		client := c.service.ClientFor(n)
		for agent, home := range homes {
			if got, err := client.Locate(ctx, agent); err != nil || got != home {
				t.Errorf("locate %s from %s after healing = %s, %v; want %s", agent, n.ID(), got, err, home)
			}
		}
	}
	// The retired IAgent disposes itself at its next tick.
	eventually(t, 5*time.Second, func(context.Context) error {
		if c.nodes[1].Hosts("iagent-2") {
			time.Sleep(20 * time.Millisecond)
			return fmt.Errorf("iagent-2 still hosted after its merge completed")
		}
		return nil
	})
}
