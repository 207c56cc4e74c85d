package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// countingCaller wraps a Caller and counts the calls it starts by kind, so
// tests can assert that a cached Locate really does zero RPCs.
type countingCaller struct {
	Caller
	mu    sync.Mutex
	calls map[string]int
}

func newCountingCaller(inner Caller) *countingCaller {
	return &countingCaller{Caller: inner, calls: make(map[string]int)}
}

func (c *countingCaller) Go(ctx context.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) transport.Pending {
	c.mu.Lock()
	c.calls[kind]++
	c.mu.Unlock()
	return c.Caller.Go(ctx, at, agent, kind, req, resp)
}

func (c *countingCaller) count(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[kind]
}

func (c *countingCaller) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

func TestLocateCacheServesWithZeroRPCs(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)

	if _, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "cached-agent"); err != nil {
		t.Fatal(err)
	}

	cfg := quietConfig()
	cfg.LocateCacheTTL = time.Minute
	cc := newCountingCaller(NodeCaller{N: c.nodes[1]})
	client := NewClient(cc, cfg)

	where, err := client.Locate(ctx, "cached-agent")
	if err != nil {
		t.Fatal(err)
	}
	if where != c.nodes[0].ID() {
		t.Fatalf("located at %s, want %s", where, c.nodes[0].ID())
	}
	base := cc.total()

	// Repeated locates must be answered from the cache: zero RPCs of any
	// kind, not just zero KindLocate.
	for i := 0; i < 5; i++ {
		where, err = client.Locate(ctx, "cached-agent")
		if err != nil {
			t.Fatal(err)
		}
		if where != c.nodes[0].ID() {
			t.Fatalf("cached locate = %s", where)
		}
	}
	if got := cc.total(); got != base {
		t.Fatalf("cached locates performed %d RPCs", got-base)
	}

	// Invalidation forces the next locate back to the server.
	client.InvalidateLocation("cached-agent")
	if _, err := client.Locate(ctx, "cached-agent"); err != nil {
		t.Fatal(err)
	}
	if got := cc.count(KindLocate); got != 2 {
		t.Fatalf("locate RPCs after invalidation = %d, want 2", got)
	}
}

func TestLocateCacheTTLExpiry(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 1)
	ctx := testCtx(t)

	if _, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "ttl-agent"); err != nil {
		t.Fatal(err)
	}

	// The cache keeps its own clock; running it on a fake while the cluster
	// stays on the wall clock keeps the test deterministic.
	fake := clock.NewFake(time.Unix(1000, 0))
	cfg := quietConfig()
	cfg.Clock = fake
	cfg.LocateCacheTTL = time.Second
	cc := newCountingCaller(NodeCaller{N: c.nodes[0]})
	client := NewClient(cc, cfg)

	if _, err := client.Locate(ctx, "ttl-agent"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Locate(ctx, "ttl-agent"); err != nil {
		t.Fatal(err)
	}
	if got := cc.count(KindLocate); got != 1 {
		t.Fatalf("locate RPCs within TTL = %d, want 1", got)
	}

	fake.Advance(2 * time.Second)
	if _, err := client.Locate(ctx, "ttl-agent"); err != nil {
		t.Fatal(err)
	}
	if got := cc.count(KindLocate); got != 2 {
		t.Fatalf("locate RPCs after TTL expiry = %d, want 2", got)
	}
}

func TestLocateCacheFencedByHashVersionBump(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)

	reg0 := c.service.ClientFor(c.nodes[0])
	if _, err := reg0.Register(ctx, "mover"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg0.Register(ctx, "bystander"); err != nil {
		t.Fatal(err)
	}

	cfg := quietConfig()
	cfg.LocateCacheTTL = time.Hour // TTL must not be what saves us here
	cc := newCountingCaller(NodeCaller{N: c.nodes[1]})
	client := NewClient(cc, cfg)

	if where, err := client.Locate(ctx, "mover"); err != nil || where != c.nodes[0].ID() {
		t.Fatalf("locate mover = %s, %v", where, err)
	}

	// The agent moves; the cached client has not heard about it and, within
	// TTL and with no version bump, is allowed to serve the stale node.
	if _, err := c.service.ClientFor(c.nodes[1]).MoveNotify(ctx, "mover", Assignment{}); err != nil {
		t.Fatal(err)
	}
	locatesBefore := cc.count(KindLocate)
	if where, err := client.Locate(ctx, "mover"); err != nil || where != c.nodes[0].ID() {
		t.Fatalf("pre-fence cached locate = %s, %v (want stale cached answer)", where, err)
	}
	if cc.count(KindLocate) != locatesBefore {
		t.Fatal("pre-fence locate was not served from cache")
	}

	// A rehash bumps the hash version. Push a version-2 state with the same
	// single leaf so responsibilities do not change — only the version does.
	st := &State{
		Ver:       2,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": c.nodes[0].ID()},
	}
	var ack Ack
	if err := c.nodes[0].CallAgent(ctx, c.nodes[0].ID(), "iagent-1", KindAdoptState, AdoptStateReq{State: st.DTO()}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Status != StatusOK {
		t.Fatalf("adopt v2 status = %v", ack.Status)
	}

	// Any reply carrying the new version fences the cache — here, an
	// unrelated locate that must go to the server.
	if _, err := client.Locate(ctx, "bystander"); err != nil {
		t.Fatal(err)
	}

	// The fenced entry must not be served: the next locate goes back to the
	// server and returns the agent's true location.
	where, err := client.Locate(ctx, "mover")
	if err != nil {
		t.Fatal(err)
	}
	if where != c.nodes[1].ID() {
		t.Fatalf("post-fence locate = %s, want %s (stale cache entry served across version bump)", where, c.nodes[1].ID())
	}
}

// TestUpdateBatcherCoalescesPerPeerPerTick: on a fake clock, updates queued
// to one destination within a tick leave as one RPC, each acked and applied,
// and the next update leaves with the next batch, a whole tick later.
func TestUpdateBatcherCoalescesPerPeerPerTick(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)

	const agents = 8
	reg := c.service.ClientFor(c.nodes[0])
	assigns := make([]Assignment, agents)
	for i := range assigns {
		a, err := reg.Register(ctx, ids.AgentID(fmt.Sprintf("batch-agent-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		assigns[i] = a
	}

	// The batcher runs on a fake clock so the tick boundary is under test
	// control: everything enqueued before the Advance is one flush.
	fake := clock.NewFake(time.Unix(1000, 0))
	bcfg := quietConfig()
	bcfg.Clock = fake
	cc := newCountingCaller(NodeCaller{N: c.nodes[1]})
	b := NewUpdateBatcher(cc, bcfg, 50*time.Millisecond)
	defer b.Close()

	client := NewClient(NodeCaller{N: c.nodes[1]}, quietConfig()).WithBatcher(b)

	var wg sync.WaitGroup
	errs := make(chan error, agents)
	for i := 0; i < agents; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.MoveNotify(ctx, ids.AgentID(fmt.Sprintf("batch-agent-%d", i)), assigns[i]); err != nil {
				errs <- fmt.Errorf("move %d: %w", i, err)
			}
		}(i)
	}

	// Wait until n updates are queued and the sender is parked on the fake
	// clock.
	waitQueued := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			b.mu.Lock()
			queued := 0
			for _, q := range b.queues {
				queued += len(q.queued)
			}
			b.mu.Unlock()
			if queued == n && fake.PendingWaiters() >= 1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d updates queued", queued, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Release exactly one tick.
	waitQueued(agents)
	fake.Advance(50 * time.Millisecond)

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := cc.count(KindUpdateBatch); got != 1 {
		t.Errorf("batch RPCs = %d, want 1 (one RPC per peer per tick)", got)
	}
	if got := cc.count(KindUpdate); got != 0 {
		t.Errorf("unbatched update RPCs = %d, want 0", got)
	}

	// The next update leaves with the destination's next batch, a whole tick
	// after the first one left and no sooner.
	moved := make(chan error, 1)
	go func() {
		_, err := client.MoveNotify(ctx, "batch-agent-0", assigns[0])
		moved <- err
	}()
	waitQueued(1)
	fake.Advance(50*time.Millisecond - time.Millisecond)
	time.Sleep(20 * time.Millisecond) // room for a batch sent too soon to show
	if got := cc.count(KindUpdateBatch); got != 1 {
		t.Fatalf("batch RPCs = %d before a tick had passed since the first, want 1", got)
	}
	fake.Advance(time.Millisecond)
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	if got := cc.count(KindUpdateBatch); got != 2 {
		t.Errorf("batch RPCs = %d after the second tick, want 2", got)
	}

	// Every entry was acked individually and applied: all agents now locate
	// at the mover's node.
	probe := c.service.ClientFor(c.nodes[0])
	for i := 0; i < agents; i++ {
		where, err := probe.Locate(ctx, ids.AgentID(fmt.Sprintf("batch-agent-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if where != c.nodes[1].ID() {
			t.Errorf("batch-agent-%d at %s, want %s", i, where, c.nodes[1].ID())
		}
	}
}

func TestIAgentParallelLocateAndRegister(t *testing.T) {
	// Readers and writers hammer one IAgent concurrently: locates travel the
	// sharded fast path (no mailbox) while registers and moves go through
	// the serial mailbox. Run under -race this exercises the striped table
	// and the lock-free state pointer. Nodes get a real metrics registry so
	// the fast-path counter is observable.
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	reg0 := metrics.New()
	nodes := make([]*platform.Node, 2)
	for i := range nodes {
		pcfg := platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net}
		if i == 0 {
			pcfg.Metrics = reg0
		}
		n, err := platform.NewNode(pcfg)
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
	c := &testCluster{nodes: nodes, service: svc}
	ctx := testCtx(t)

	const hot = 16
	reg := c.service.ClientFor(c.nodes[0])
	for i := 0; i < hot; i++ {
		if _, err := reg.Register(ctx, ids.AgentID(fmt.Sprintf("hot-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 128)

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			client := c.service.ClientFor(c.nodes[r%2])
			for i := 0; i < 40; i++ {
				target := ids.AgentID(fmt.Sprintf("hot-%d", (r+i)%hot))
				if _, err := client.Locate(ctx, target); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := c.service.ClientFor(c.nodes[w%2])
			for i := 0; i < 20; i++ {
				id := ids.AgentID(fmt.Sprintf("new-%d-%d", w, i))
				assign, err := client.Register(ctx, id)
				if err != nil {
					errs <- fmt.Errorf("writer %d register: %w", w, err)
					return
				}
				if _, err := client.MoveNotify(ctx, id, assign); err != nil {
					errs <- fmt.Errorf("writer %d move: %w", w, err)
					return
				}
			}
		}(w)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Everything registered mid-storm is locatable afterwards.
	probe := c.service.ClientFor(c.nodes[1])
	for w := 0; w < 4; w++ {
		for i := 0; i < 20; i++ {
			if _, err := probe.Locate(ctx, ids.AgentID(fmt.Sprintf("new-%d-%d", w, i))); err != nil {
				t.Fatalf("post-storm locate new-%d-%d: %v", w, i, err)
			}
		}
	}

	// The locates above must have travelled the concurrent fast path.
	fast := reg0.Counter("agentloc_platform_agent_requests_fastpath_total", "node", string(c.nodes[0].ID()))
	if fast.Value() == 0 {
		t.Error("no requests took the concurrent fast path")
	}
}

func TestLocCacheRefusesFencedPut(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	cache := newLocCache(Config{LocateCacheTTL: time.Minute, LocateCacheSize: 2}, fake, nil)

	cache.put("a", "node-x", 1)
	if node, ok := cache.get("a"); !ok || node != "node-x" {
		t.Fatalf("get = %s, %v", node, ok)
	}

	// Fencing at version 3 kills the version-1 entry and refuses any put
	// below the fence — a racing locate must not resurrect a stale answer.
	cache.fence(3)
	if _, ok := cache.get("a"); ok {
		t.Fatal("fenced entry served")
	}
	cache.put("a", "node-x", 2)
	if _, ok := cache.get("a"); ok {
		t.Fatal("below-fence put accepted")
	}
	cache.put("a", "node-y", 3)
	if node, ok := cache.get("a"); !ok || node != "node-y" {
		t.Fatalf("at-fence put: get = %s, %v", node, ok)
	}

	// The size cap holds: a third distinct agent evicts rather than grows.
	cache.put("b", "node-y", 3)
	cache.put("c", "node-z", 3)
	cache.mu.Lock()
	n := len(cache.index)
	cache.mu.Unlock()
	if n > 2 {
		t.Errorf("cache grew to %d entries, cap 2", n)
	}
}

// TestLocateCacheReadsOwnWrites: a client with the cache on sees its own
// acknowledged reports — a move, a residence move and a deregister — at its
// next Locate, instead of the location it cached before reporting.
func TestLocateCacheReadsOwnWrites(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	home, away := c.nodes[0].ID(), c.nodes[1].ID()

	cfg := quietConfig()
	cfg.LocateCacheTTL = time.Hour
	cc := newCountingCaller(NodeCaller{N: c.nodes[0]})
	client := NewClient(cc, cfg)
	locate := func(a ids.AgentID, want platform.NodeID, step string) {
		t.Helper()
		if where, err := client.Locate(ctx, a); err != nil || where != want {
			t.Fatalf("%s: locate %s = %s, %v; want %s", step, a, where, err, want)
		}
	}

	if _, err := client.Register(ctx, "ryw-mover"); err != nil {
		t.Fatal(err)
	}
	locate("ryw-mover", home, "after register")
	locate("ryw-mover", home, "cached") // the entry is warm now
	if _, err := client.MoveNotifyTo(ctx, "ryw-mover", away, Assignment{}); err != nil {
		t.Fatal(err)
	}
	locate("ryw-mover", away, "after its own move")
	// A check-in is a location report too: it records the client's own node.
	if _, _, err := client.CheckIn(ctx, "ryw-mover", Assignment{}); err != nil {
		t.Fatal(err)
	}
	locate("ryw-mover", home, "after its own check-in")

	if _, err := client.Register(ctx, "ryw-member"); err != nil {
		t.Fatal(err)
	}
	group := client.ResidenceGroup("res@ryw")
	if err := group.Join(ctx, "ryw-member"); err != nil {
		t.Fatal(err)
	}
	locate("ryw-member", home, "after join")
	updates := cc.count(KindUpdate)
	if err := group.MoveTo(ctx, away); err != nil {
		t.Fatal(err)
	}
	if cc.count(KindUpdate) != updates {
		t.Fatal("the residence move fell back to per-member updates; the fast path is under test")
	}
	locate("ryw-member", away, "after its own residence move")

	if err := client.Deregister(ctx, "ryw-mover", Assignment{}); err != nil {
		t.Fatal(err)
	}
	if where, err := client.Locate(ctx, "ryw-mover"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("locate after its own deregister = %s, %v; want ErrNotRegistered", where, err)
	}
}

// fourLeafCluster deploys cfg on four in-memory nodes, stores 64 agents at
// iagent-1 with one update batch — no LHAgent hears of them, so every node's
// hash copy is still cold — and splits iagent-1 three times, to four leaves.
// It returns the cluster and the agents' homes.
func fourLeafCluster(t *testing.T, cfg Config) (*testCluster, map[ids.AgentID]platform.NodeID) {
	t.Helper()
	c := newTestCluster(t, cfg, 4)
	ctx := testCtx(t)
	homes := make(map[ids.AgentID]platform.NodeID)
	var req UpdateBatchReq
	var agents []ids.AgentID
	for i := 0; i < 64; i++ {
		a, n := ids.AgentID(fmt.Sprintf("fan-%02d", i)), c.nodes[i%4].ID()
		homes[a] = n
		agents = append(agents, a)
		req.Updates = append(req.Updates, UpdateReq{Agent: a, Node: n})
	}
	var resp UpdateBatchResp
	if err := c.nodes[0].CallAgent(ctx, "node-0", "iagent-1", KindUpdateBatch, &req, &resp); err != nil {
		t.Fatal(err)
	}
	for i, ack := range resp.Acks {
		if ack.Status != StatusOK {
			t.Fatalf("store %s: %v", agents[i], ack.Status)
		}
	}
	for i := 0; i < 3; i++ {
		splitLeaf(t, c.service, "iagent-1", agents)
	}
	if n := len(hashState(t, c, ctx).Locations); n != 4 {
		t.Fatalf("cluster has %d leaves, want 4", n)
	}
	return c, homes
}

func keysOf(homes map[ids.AgentID]platform.NodeID) []ids.AgentID {
	out := make([]ids.AgentID, 0, len(homes))
	for a := range homes {
		out = append(out, a)
	}
	return out
}

// TestLocateBatchAsksLHAgentOnce: a 64-target batch over four leaves costs
// one call to the local LHAgent and at most one frame per leaf — never a whois
// per target.
func TestLocateBatchAsksLHAgentOnce(t *testing.T) {
	c, homes := fourLeafCluster(t, quietConfig())
	cc := newCountingCaller(NodeCaller{N: c.nodes[1]})
	got, err := NewClient(cc, quietConfig()).LocateBatch(testCtx(t), keysOf(homes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, homes) {
		t.Errorf("LocateBatch = %v, want %v", got, homes)
	}
	if n := cc.count(KindWhoisBatch); n != 1 {
		t.Errorf("%d whois-batch calls, want 1", n)
	}
	if n := cc.count(KindWhois); n != 0 {
		t.Errorf("%d whois calls, want 0", n)
	}
	if n := cc.count(KindLocateBatch); n > 4 {
		t.Errorf("%d locate-batch frames for four leaves", n)
	}
	if n := cc.count(KindLocate) + cc.count(KindRefresh); n != 0 {
		t.Errorf("%d singleton locates and refreshes: the batch fell back", n)
	}
}

// TestLocateBatchFramesTravelTogether: every IAgent charges each request the
// same service time S, so a batch over four leaves takes about S when its
// frames are in flight together, and at least 4·S when they go one by one.
func TestLocateBatchFramesTravelTogether(t *testing.T) {
	const service = 100 * time.Millisecond
	cfg := quietConfig()
	cfg.IAgentServiceTime = service
	c, homes := fourLeafCluster(t, cfg)
	cc := newCountingCaller(NodeCaller{N: c.nodes[1]})
	client := NewClient(cc, cfg)
	ctx := testCtx(t)
	targets := keysOf(homes)
	if _, err := client.LocateBatch(ctx, targets); err != nil { // warms the local hash copy
		t.Fatal(err)
	}
	frames := cc.count(KindLocateBatch)
	start := time.Now()
	got, err := client.LocateBatch(ctx, targets)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, homes) {
		t.Errorf("LocateBatch = %v, want %v", got, homes)
	}
	if n := cc.count(KindLocateBatch) - frames; n != 4 {
		t.Fatalf("%d locate-batch frames, want one per leaf (4)", n)
	}
	if took >= 2*service {
		t.Errorf("a batch over four leaves took %v at %v per request: its frames were not in flight together", took, service)
	}
}

// TestDiscoverGivingUpLeavesTheCacheOn is the regression test for the fence a
// failed Discover left behind: with a leaf unreachable and nobody naming a
// newer hash version, Discover demands version+1 — and used to fence the
// location cache there, at a version that does not exist, so every later put
// was refused until the next rehash.
func TestDiscoverGivingUpLeavesTheCacheOn(t *testing.T) {
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
	// The HAgent on node-0, the only leaf on node-2, the client on node-1.
	cfg := quietConfig()
	cfg.HAgentNode = "node-0"
	cfg.PlacementNodes = []platform.NodeID{"node-2"}
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	if _, err := svc.ClientFor(nodes[2]).RegisterWithCapabilities(ctx, "ocr-1", []string{"ocr"}); err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.LocateCacheTTL = time.Minute
	ccfg.CallTimeout = 100 * time.Millisecond
	cc := newCountingCaller(NodeCaller{N: nodes[1]})
	client := NewClient(cc, ccfg)

	net.Partition("node-1", "node-2")
	if _, err := client.Discover(ctx, Query{Caps: []string{"ocr"}}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Discover behind a partition: %v, want ErrRetriesExhausted", err)
	}
	net.Heal("node-1", "node-2")

	if where, err := client.Locate(ctx, "ocr-1"); err != nil || where != "node-2" {
		t.Fatalf("locate after heal = %s, %v", where, err)
	}
	before := cc.total()
	if _, err := client.Locate(ctx, "ocr-1"); err != nil {
		t.Fatal(err)
	}
	if n := cc.total() - before; n != 0 {
		t.Errorf("the second locate sent %d RPCs: the cache refused the first answer", n)
	}
}
