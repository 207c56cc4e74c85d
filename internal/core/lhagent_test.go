package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// versionedHAgent stands in for the HAgent: every GetHash it serves carries
// a hash state one version newer than the last, so each LHAgent fetch
// installs a new copy.
type versionedHAgent struct {
	ver atomic.Uint64
}

func (h *versionedHAgent) HandleRequest(_ *platform.Context, kind string, payload []byte) (any, error) {
	if kind != KindGetHash {
		return nil, fmt.Errorf("versionedHAgent: unknown kind %q", kind)
	}
	return GetHashResp{State: stateAt(h.ver.Add(1)).DTO()}, nil
}

// stateAt builds a one-leaf hash state at the given version.
func stateAt(ver uint64) *State {
	return &State{
		Ver:       ver,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": "node-0"},
	}
}

// TestLHAgentConcurrentReads drives the four read kinds from eight
// goroutines while the copy is replaced underneath them both ways — eager
// adopts (some deliberately older than the installed copy) and refreshes that
// force a fetch. No reader may ever see the version go backwards or a leaf
// without a location. Run with -race -count=10.
func TestLHAgentConcurrentReads(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	n, err := platform.NewNode(platform.Config{ID: "node-0", Link: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cfg := quietConfig()
	cfg.HAgentNode = "node-0"
	hagent := &versionedHAgent{}
	hagent.ver.Store(1) // real hash states start at version 1
	if err := n.Launch(cfg.HAgent, hagent); err != nil {
		t.Fatal(err)
	}
	lh := LHAgentID("node-0")
	if err := n.Launch(lh, &LHAgentBehavior{Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	const readers, rounds = 8, 200
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var seen uint64
			observe := func(what string, ver uint64) {
				if ver < seen {
					t.Errorf("reader %d: %s answered v%d after v%d", r, what, ver, seen)
				}
				seen = ver
			}
			for i := 0; i < rounds; i++ {
				var who WhoisResp
				if err := n.CallAgent(ctx, "node-0", lh, KindWhois, &WhoisReq{Target: ids.AgentID(fmt.Sprintf("a-%d-%d", r, i))}, &who); err != nil {
					t.Errorf("whois: %v", err)
					return
				}
				if who.IAgent == "" || who.Node == "" {
					t.Errorf("whois answered an empty owner: %+v", who)
				}
				observe("whois", who.HashVersion)

				var batch WhoisBatchResp
				targets := []ids.AgentID{"x", ids.AgentID(fmt.Sprintf("b-%d-%d", r, i))}
				if err := n.CallAgent(ctx, "node-0", lh, KindWhoisBatch, &WhoisBatchReq{Targets: targets}, &batch); err != nil {
					t.Errorf("whois-batch: %v", err)
					return
				}
				if len(batch.Owner) != len(targets) || len(batch.Leaves) == 0 {
					t.Errorf("whois-batch answered %d owners over %d leaves", len(batch.Owner), len(batch.Leaves))
				}
				observe("whois-batch", batch.HashVersion)

				var leaves LeavesResp
				if err := n.CallAgent(ctx, "node-0", lh, KindLeaves, &LeavesReq{}, &leaves); err != nil {
					t.Errorf("leaves: %v", err)
					return
				}
				if len(leaves.Leaves) == 0 {
					t.Errorf("leaves answered an empty scatter set at v%d", leaves.HashVersion)
				}
				for _, l := range leaves.Leaves {
					if l.Node == "" {
						t.Errorf("leaf %s has no location at v%d", l.IAgent, leaves.HashVersion)
					}
				}
				observe("leaves", leaves.HashVersion)

				// Every eighth round demands a copy newer than the one just
				// seen: the fast path declines and the mailbox fetches.
				min := uint64(0)
				if i%8 == r%8 {
					min = seen + 1
				}
				var fresh RefreshResp
				if err := n.CallAgent(ctx, "node-0", lh, KindRefresh, &RefreshReq{MinVersion: min}, &fresh); err != nil {
					t.Errorf("refresh: %v", err)
					return
				}
				if fresh.HashVersion < min {
					t.Errorf("refresh(min v%d) answered v%d", min, fresh.HashVersion)
				}
				observe("refresh", fresh.HashVersion)
			}
		}(r)
	}
	// The adopter pushes states at or just behind the version the fake HAgent
	// has reached (never ahead, so a fetch always finds something newer): half
	// of them are already superseded and must be ignored.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ver := hagent.ver.Load()
			if i%2 == 0 && ver > 2 {
				ver -= 2
			}
			var resp RefreshResp
			if err := n.CallAgent(ctx, "node-0", lh, KindLHAdopt, AdoptLHStateReq{State: stateAt(ver).DTO()}, &resp); err != nil {
				t.Errorf("adopt: %v", err)
				return
			}
			if resp.HashVersion < ver {
				t.Errorf("adopt(v%d) left the copy at v%d", ver, resp.HashVersion)
			}
		}
	}()
	wg.Wait()
}

// BenchmarkWhoisLocal times Client.Whois against the node's own LHAgent with
// a warm copy: the cost every location operation pays before its network hop.
func BenchmarkWhoisLocal(b *testing.B) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	n, err := platform.NewNode(platform.Config{ID: "node-0", Link: net})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	svc, err := Deploy(context.Background(), quietConfig(), []*platform.Node{n})
	if err != nil {
		b.Fatal(err)
	}
	client := svc.ClientFor(n)
	ctx := context.Background()
	targets := make([]ids.AgentID, 1024)
	for i := range targets {
		targets[i] = ids.AgentID(fmt.Sprintf("a-%07d-padded-to-24-b", i))
	}
	if _, err := client.Whois(ctx, targets[0]); err != nil { // first copy
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Whois(ctx, targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDiscoverCountsEveryScatterRPC is the regression test for the op RPC
// counter across a scatter: a lost increment shows as an rpcs attribute
// below leaves + 1 (one KindLeaves, then one KindDiscover per leaf). The
// counter is a plain int, which -race checks: every leg is posted from the
// calling goroutine.
func TestDiscoverCountsEveryScatterRPC(t *testing.T) {
	c, recs := newTracedCluster(t, quietConfig(), 3)
	ctx := testCtx(t)
	client := c.service.ClientFor(c.nodes[0])
	homes := make(map[ids.AgentID]platform.NodeID)
	for i := 0; i < 32; i++ {
		agent := ids.AgentID(fmt.Sprintf("scatter-agent-%02d", i))
		if _, err := client.RegisterWithCapabilities(ctx, agent, []string{"worker"}); err != nil {
			t.Fatal(err)
		}
		homes[agent] = c.nodes[0].ID()
	}
	forceSplit(t, c, ctx, "iagent-1", homes)
	forceSplit(t, c, ctx, "iagent-1", homes)
	leaves := len(hashState(t, c, ctx).Locations)
	if leaves < 3 {
		t.Fatalf("cluster has %d leaves, want at least 3", leaves)
	}
	// The first query converges the local hash copy (retry rounds add
	// RPCs); the second runs exactly one enumeration and one scatter.
	for i := 0; i < 2; i++ {
		requireSameSet(t, "worker", discoverSet(t, ctx, client, Query{Caps: []string{"worker"}}), homes)
	}
	var last *trace.Span
	for _, s := range recs[0].Snapshot() {
		if s.Tier == "client" && s.Name == "discover" {
			last = &s
		}
	}
	if last == nil {
		t.Fatal("no discover span recorded")
	}
	if got, want := last.Attr("rpcs"), fmt.Sprint(leaves+1); got != want {
		t.Errorf("discover over %d leaves recorded rpcs=%s, want %s", leaves, got, want)
	}
}

// TestNodeCloseWithSiblingLeavesIsPrompt closes a node hosting two sibling
// leaves whose background loops (heartbeats to an HAgent that is already
// gone, checkpoint pushes to each other) are in flight. Close must abandon
// those calls instead of waiting out CallTimeout once per agent.
func TestNodeCloseWithSiblingLeavesIsPrompt(t *testing.T) {
	cfg := failoverConfig()
	cfg.CallTimeout = 10 * time.Second
	cfg.HAgentNode = "node-1"
	cfg.PlacementNodes = []platform.NodeID{"node-0"}
	c, _ := newTCPCluster(t, cfg, 2, nil)
	ctx := testCtx(t)
	homes := registerMany(t, c, ctx, 16)
	forceSplit(t, c, ctx, "iagent-1", homes)
	st := hashState(t, c, ctx)
	if n := len(st.Locations); n != 2 {
		t.Fatalf("cluster has %d leaves, want 2", n)
	}
	for ia, node := range st.Locations {
		if node != "node-0" {
			t.Fatalf("leaf %s on %s, want both siblings on node-0", ia, node)
		}
	}
	// With the HAgent's node gone (its link stays up, so envelopes to it
	// vanish rather than bounce), every heartbeat from node-0 is a call
	// nobody will answer.
	if err := c.nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * cfg.HeartbeatInterval) // let both leaves start a beat
	start := time.Now()
	if err := c.nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with CallTimeout %v; background calls were not abandoned", d, cfg.CallTimeout)
	}
}
