package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// Tests for the two scatter-gathers over leaves, LocateBatch and Discover,
// which post every leaf's request from the calling goroutine and wait for
// the answers there (Client.fanOut).

// goroutineID names the calling goroutine, from its stack header
// ("goroutine 123 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// goroutineCaller records, per kind, the goroutine each call was started on.
type goroutineCaller struct {
	Caller
	mu   sync.Mutex
	from map[string][]string
}

func (g *goroutineCaller) Go(ctx context.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) transport.Pending {
	id := goroutineID()
	g.mu.Lock()
	g.from[kind] = append(g.from[kind], id)
	g.mu.Unlock()
	return g.Caller.Go(ctx, at, agent, kind, req, resp)
}

// fanOutCluster registers n agents advertising "fan" from node-0 and splits
// the first leaf until the tree has at least leaves leaves.
func fanOutCluster(t *testing.T, c *testCluster, n, leaves int) (homes map[ids.AgentID]platform.NodeID, targets []ids.AgentID) {
	t.Helper()
	ctx := testCtx(t)
	reg := c.service.ClientFor(c.nodes[0])
	homes = make(map[ids.AgentID]platform.NodeID, n)
	for i := 0; i < n; i++ {
		a := ids.AgentID(fmt.Sprintf("fan-%03d", i))
		if _, err := reg.RegisterWithCapabilities(ctx, a, []string{"fan"}); err != nil {
			t.Fatal(err)
		}
		homes[a] = c.nodes[0].ID()
		targets = append(targets, a)
	}
	for len(hashState(t, c, ctx).Locations) < leaves {
		forceSplit(t, c, ctx, "iagent-1", homes)
	}
	return homes, targets
}

// Neither fan-out starts a goroutine per leg: every leaf's request, to a
// remote leaf or one on the caller's own node, is started on the goroutine
// that called LocateBatch or Discover.
func TestFanOutsPostFromCallingGoroutine(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	homes, targets := fanOutCluster(t, c, 64, 4)
	ctx := testCtx(t)
	gc := &goroutineCaller{Caller: NodeCaller{N: c.nodes[1]}, from: make(map[string][]string)}
	client := NewClient(gc, quietConfig())

	got, err := client.LocateBatch(ctx, targets)
	if err != nil || len(got) != len(targets) {
		t.Fatalf("LocateBatch located %d of %d: %v", len(got), len(targets), err)
	}
	requireSameSet(t, "fan", discoverSet(t, ctx, client, Query{Caps: []string{"fan"}}), homes)

	self := goroutineID()
	for _, kind := range []string{KindLocateBatch, KindDiscover} {
		from := gc.from[kind]
		if len(from) < 4 {
			t.Errorf("%s went to %d leaves, want at least 4", kind, len(from))
		}
		for _, id := range from {
			if id != self {
				t.Errorf("a %s leg was started on goroutine %s, not the caller's %s", kind, id, self)
			}
		}
	}
}

// A target named more than once is located like any other: the batch keeps
// no set of the targets it has seen, and its leaves answer each copy alike.
func TestLocateBatchRepeatedTargets(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	homes, targets := fanOutCluster(t, c, 16, 2)
	got, err := c.service.ClientFor(c.nodes[1]).LocateBatch(testCtx(t), append(targets, targets[:5]...))
	if err != nil {
		t.Fatal(err)
	}
	requireSameSet(t, "located", got, homes)
}

// A leaf whose node does not read — its writes stall — costs a fan-out one
// call deadline, however many of the legs it holds: Discover and LocateBatch
// return with the other leaves' answers, and no call is left waiting.
func TestFanOutsSurviveStalledLeaf(t *testing.T) {
	f := transport.NewFaults()
	cfg := quietConfig()
	cfg.PlacementNodes = []platform.NodeID{"node-2", "node-0"}
	c, links := newTCPCluster(t, cfg, 3, func(i int, tc *transport.TCPConfig) {
		if i == 1 {
			tc.Faults = f
		}
	})
	homes, targets := fanOutCluster(t, c, 64, 4)
	st := hashState(t, c, testCtx(t))
	healthy := make(map[ids.AgentID]platform.NodeID)
	stalledLegs := 0
	for _, node := range st.Locations {
		if node == "node-2" {
			stalledLegs++
		}
	}
	for a, home := range homes {
		if _, node, err := st.OwnerOf(a); err != nil {
			t.Fatal(err)
		} else if node != "node-2" {
			healthy[a] = home
		}
	}
	if stalledLegs < 2 || len(healthy) == 0 || len(healthy) == len(homes) {
		t.Fatalf("placement gave %d leaves on node-2 and %d of %d agents elsewhere; the test wants at least 2 and some",
			stalledLegs, len(healthy), len(homes))
	}

	ccfg := quietConfig()
	ccfg.CallTimeout = 100 * time.Millisecond
	ccfg.RetryBackoffBase = time.Millisecond
	ccfg.RetryBackoffMax = 2 * time.Millisecond
	client := NewClient(NodeCaller{N: c.nodes[1]}, ccfg)
	// Warm the connections and node-1's hash copy before the stall.
	requireSameSet(t, "fan", discoverSet(t, testCtx(t), client, Query{Caps: []string{"fan"}}), homes)

	f.StallWritesTo(links[2].ListenAddr(), true)
	defer f.StallWritesTo(links[2].ListenAddr(), false)

	// Every round of the Discover waits out one deadline for the stalled
	// legs, then re-enumerates; it gives up after maxProtocolRetries rounds
	// with what the healthy leaves answered.
	start := time.Now()
	matches, err := client.Discover(context.Background(), Query{Caps: []string{"fan"}})
	took := time.Since(start)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("discover past a stalled leaf: err %v, want ErrRetriesExhausted", err)
	}
	got := make(map[ids.AgentID]platform.NodeID, len(matches))
	for _, m := range matches {
		got[m.Agent] = m.Node
	}
	requireSameSet(t, "fan (healthy leaves)", got, healthy)
	if limit := maxProtocolRetries * ccfg.CallTimeout * 3 / 2; took > limit {
		t.Errorf("discover took %v over %d rounds, more than one %v deadline a round (limit %v)",
			took, maxProtocolRetries, ccfg.CallTimeout, limit)
	}
	noneOutstanding(t, c.nodes[1], "Discover")

	// A LocateBatch bounded by two deadlines: the fan-out spends one, the
	// stalled share's singleton retries the other.
	ctx, cancel := context.WithTimeout(context.Background(), 2*ccfg.CallTimeout)
	defer cancel()
	start = time.Now()
	located, err := client.LocateBatch(ctx, targets)
	took = time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("LocateBatch past a stalled leaf: err %v, want a deadline", err)
	}
	requireSameSet(t, "located (healthy leaves)", located, healthy)
	if limit := 3 * ccfg.CallTimeout; took > limit {
		t.Errorf("LocateBatch took %v, past its %v context by more than a deadline", took, 2*ccfg.CallTimeout)
	}
	noneOutstanding(t, c.nodes[1], "LocateBatch")
}

// Concurrent Discovers over TCP answer exactly, and the answers stay exact
// after the connections have carried more traffic: a match's agent id is
// copied out of its reply, never a view of a read buffer.
func TestDiscoverAnswersSurviveConcurrentTraffic(t *testing.T) {
	c, _ := newTCPCluster(t, quietConfig(), 3, nil)
	homes, targets := fanOutCluster(t, c, 48, 3)
	ctx := testCtx(t)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		answers [][]Match
	)
	for w := 0; w < 6; w++ {
		client := c.service.ClientFor(c.nodes[w%len(c.nodes)])
		near := c.nodes[(w+1)%len(c.nodes)].ID()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				matches, err := client.Discover(ctx, Query{Caps: []string{"fan"}, Near: near})
				if err != nil {
					t.Errorf("discover: %v", err)
					return
				}
				if _, err := client.LocateBatch(ctx, targets); err != nil {
					t.Errorf("locate batch: %v", err)
					return
				}
				mu.Lock()
				answers = append(answers, matches)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, matches := range answers {
		got := make(map[ids.AgentID]platform.NodeID, len(matches))
		for _, m := range matches {
			got[m.Agent] = m.Node
		}
		requireSameSet(t, "fan", got, homes)
	}
}

// A fan-out's answer is its caller's own: a LocateBatch map and a Discover
// result read the same, byte for byte, after the client that returned them
// has made two hundred more batches and discoveries from four goroutines,
// with locates and moves among them, over TCP. Nothing a result holds is a
// view of a reply buffer or of the pooled scratch the later calls reuse —
// which, were it one, those calls would overwrite: each later discovery asks
// for another tag, so its ids differ from the kept one's.
func TestFanOutAnswersOutliveLaterCalls(t *testing.T) {
	c, _ := newTCPCluster(t, quietConfig(), 3, nil)
	homes, targets := fanOutCluster(t, c, 48, 3)
	ctx := testCtx(t)
	reg := c.service.ClientFor(c.nodes[0])
	for i, a := range targets {
		if _, err := reg.Advertise(ctx, a, []string{"fan", fmt.Sprintf("group-%d", i%4)}, Assignment{}); err != nil {
			t.Fatal(err)
		}
	}
	movers := make([]ids.AgentID, 8)
	for i := range movers {
		movers[i] = ids.AgentID(fmt.Sprintf("mover-%d", i))
		if _, err := reg.Register(ctx, movers[i]); err != nil {
			t.Fatal(err)
		}
	}
	client := c.service.ClientFor(c.nodes[1])
	located, err := client.LocateBatch(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSet(t, "located", located, homes)
	found, err := client.Discover(ctx, Query{Caps: []string{"fan"}, Near: "node-2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != len(targets) {
		t.Fatalf("discovered %d of %d", len(found), len(targets))
	}
	wantLocated := make(map[string]string, len(located))
	for a, n := range located {
		wantLocated[strings.Clone(string(a))] = strings.Clone(string(n))
	}
	wantFound := make([]string, len(found))
	for i, m := range found {
		wantFound[i] = strings.Clone(string(m.Agent) + "@" + string(m.Node))
	}

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				k := (w*50 + i) % len(targets)
				if _, err := client.LocateBatch(ctx, slices.Concat(targets[k:], targets[:k])); err != nil {
					t.Errorf("locate batch: %v", err)
					return
				}
				if _, err := client.Discover(ctx, Query{Caps: []string{fmt.Sprintf("group-%d", (w+i)%4)}}); err != nil {
					t.Errorf("discover: %v", err)
					return
				}
				if _, err := client.Locate(ctx, targets[k]); err != nil {
					t.Errorf("locate: %v", err)
					return
				}
				mover := movers[(w*50+i)%len(movers)]
				if _, err := client.MoveNotifyTo(ctx, mover, c.nodes[i%len(c.nodes)].ID(), Assignment{}); err != nil {
					t.Errorf("move: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if len(located) != len(wantLocated) {
		t.Errorf("the kept LocateBatch map has %d entries, had %d", len(located), len(wantLocated))
	}
	for a, n := range located {
		if want, ok := wantLocated[string(a)]; !ok || string(n) != want {
			t.Errorf("the kept LocateBatch map reads %q → %q, was %q (present %v)", a, n, want, ok)
		}
	}
	for i, m := range found {
		if got := string(m.Agent) + "@" + string(m.Node); got != wantFound[i] {
			t.Errorf("kept match %d reads %q, was %q", i, got, wantFound[i])
		}
	}
}

// The HAgent's pushes of a round go out together: with three of its push
// targets — here the replicas, whose nodes the HAgent's node cannot write to —
// stalled, a split costs one call deadline, not one per target, and a GetHash
// queued behind the split in the HAgent's mailbox is answered as soon.
func TestHAgentStalledPushesCostOneDeadline(t *testing.T) {
	f := transport.NewFaults()
	cfg := quietConfig()
	cfg.CallTimeout = 400 * time.Millisecond
	// New IAgents stay on the HAgent's node, so the split's launch and
	// handoffs never cross a stalled link: only the replica pushes do.
	cfg.PlacementNodes = []platform.NodeID{"node-0"}
	for i := 1; i <= 3; i++ {
		cfg.HAgentReplicas = append(cfg.HAgentReplicas, HAgentRef{
			Agent: ids.AgentID(fmt.Sprintf("%s-replica-%d", cfg.HAgent, i)),
			Node:  platform.NodeID(fmt.Sprintf("node-%d", i)),
		})
	}
	c, links := newTCPCluster(t, cfg, 4, func(i int, tc *transport.TCPConfig) {
		if i == 0 {
			tc.Faults = f
		}
	})
	initial := hashState(t, c, testCtx(t))
	refs, err := DeployReplicas(c.service.Config(), initial.DTO(), c.nodes[1:])
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(refs) != fmt.Sprint(cfg.HAgentReplicas) {
		t.Fatalf("replicas deployed as %v, want %v", refs, cfg.HAgentReplicas)
	}
	ctx := testCtx(t)
	cfg = c.service.Config()
	homes := registerMany(t, c, ctx, 32)
	// A first split opens the HAgent's connections to the replicas' nodes.
	forceSplit(t, c, ctx, "iagent-1", homes)

	for _, l := range links[1:] {
		f.StallWritesTo(l.ListenAddr(), true)
		defer f.StallWritesTo(l.ListenAddr(), false)
	}
	st := hashState(t, c, ctx)
	perAgent := make(map[ids.AgentID]uint64)
	for agent := range homes {
		if owner, _, _ := st.OwnerOf(agent); owner == "iagent-1" {
			perAgent[agent] = 5
		}
	}
	type result struct {
		took time.Duration
		err  error
	}
	split := make(chan result, 1)
	start := time.Now()
	go func() {
		var resp RehashResp
		err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestSplit,
			RequestSplitReq{IAgent: "iagent-1", HashVersion: st.Version(), Rate: 999, PerAgent: perAgent}, &resp)
		if err == nil && resp.Status != StatusOK {
			err = fmt.Errorf("split status %v", resp.Status)
		}
		split <- result{time.Since(start), err}
	}()
	// Once the HAgent's node has a call waiting, the split is pushing to the
	// replicas; the GetHash queues behind it.
	for c.nodes[0].Outstanding() == 0 {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("the split's replica pushes never went out (%d calls out)", c.nodes[0].Outstanding())
		}
		time.Sleep(time.Millisecond)
	}
	asked := time.Now()
	var resp GetHashResp
	err = c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindGetHash, GetHashReq{IfNewerThan: st.Version()}, &resp)
	answered := time.Since(asked)
	s := <-split

	limit := cfg.CallTimeout * 3 / 2
	if s.err != nil || s.took > limit {
		t.Errorf("split past three stalled replicas took %v (%v), want one %v deadline (limit %v)", s.took, s.err, cfg.CallTimeout, limit)
	}
	if err != nil || resp.Unchanged || answered > limit {
		t.Errorf("GetHash queued behind the split answered after %v (unchanged %v, %v), want within %v", answered, resp.Unchanged, err, limit)
	}
	t.Logf("split %v, GetHash behind it %v; CallTimeout %v", s.took, answered, cfg.CallTimeout)
	noneOutstanding(t, c.nodes[0], "the split")
}
