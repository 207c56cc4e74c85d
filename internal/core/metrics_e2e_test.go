package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/metrics/metricstest"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// newMeteredCluster is newTestCluster with one shared metrics registry
// wired through the network, the envelope-counting link wrapper and every
// node — the same topology experiment.Run builds.
func newMeteredCluster(t *testing.T, cfg Config, numNodes int) (*testCluster, *metrics.Registry) {
	t.Helper()
	goroutinesReturn(t)
	reg := metrics.New()
	net := transport.NewNetwork(transport.NetworkConfig{Metrics: reg})
	t.Cleanup(func() { net.Close() })
	link := transport.Instrument(net, reg)
	nodes := make([]*platform.Node, numNodes)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{
			ID:      platform.NodeID(fmt.Sprintf("node-%d", i)),
			Link:    link,
			Metrics: reg,
		})
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
	return &testCluster{nodes: nodes, service: svc}, reg
}

// TestMetricsEndToEndQuiet drives register/locate traffic through a
// three-node cluster and checks the counters against the exact number of
// operations issued. The §4.3 retry loop makes per-IAgent request counts
// traffic-dependent, so the assertions use the loop's invariant: requests
// seen by IAgents = operations issued + protocol retries.
func TestMetricsEndToEndQuiet(t *testing.T) {
	const numAgents, numLocates = 6, 30
	c, reg := newMeteredCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	for i := 0; i < numAgents; i++ {
		client := c.service.ClientFor(c.nodes[i%len(c.nodes)])
		agent := ids.AgentID(fmt.Sprintf("agent-%d", i))
		if _, err := client.Register(ctx, agent); err != nil {
			t.Fatalf("register %s: %v", agent, err)
		}
	}
	querier := c.service.ClientFor(c.nodes[2])
	for i := 0; i < numLocates; i++ {
		if _, err := querier.Locate(ctx, ids.AgentID(fmt.Sprintf("agent-%d", i%numAgents))); err != nil {
			t.Fatalf("locate %d: %v", i, err)
		}
	}

	s := reg.Snapshot()
	locReq := s.Counter("agentloc_core_iagent_requests_total", "op", "locate")
	locRetries := s.Counter("agentloc_core_client_retries_total", "op", "locate")
	if locReq != numLocates+locRetries {
		t.Errorf("iagent locate requests = %d, want %d issued + %d retries", locReq, numLocates, locRetries)
	}
	regReq := s.Counter("agentloc_core_iagent_requests_total", "op", "register")
	regRetries := s.Counter("agentloc_core_client_retries_total", "op", "register")
	if regReq != numAgents+regRetries {
		t.Errorf("iagent register requests = %d, want %d issued + %d retries", regReq, numAgents, regRetries)
	}
	// Every stale answer triggers exactly one retry round.
	if stale, retries := s.Counter("agentloc_core_iagent_stale_total"), s.Counter("agentloc_core_client_retries_total"); stale != retries {
		t.Errorf("stale answers = %d, retries = %d, want equal", stale, retries)
	}
	if got := s.HistogramSnap("agentloc_core_locate_latency_seconds").Count; got != numLocates {
		t.Errorf("locate latency observations = %d, want %d", got, numLocates)
	}
	// The single IAgent's table holds exactly the registered agents.
	if got := s.Gauge("agentloc_core_iagent_table_entries"); got != numAgents {
		t.Errorf("table entries = %d, want %d", got, numAgents)
	}
	if sent := s.Counter("agentloc_transport_envelopes_sent_total"); sent == 0 {
		t.Error("no envelopes counted as sent")
	}
	if recv := s.Counter("agentloc_transport_envelopes_received_total"); recv == 0 {
		t.Error("no envelopes counted as received")
	}
	if dropped := s.Counter("agentloc_transport_network_dropped_total"); dropped != 0 {
		t.Errorf("lossless network dropped %d envelopes", dropped)
	}
	if got := s.Counter("agentloc_core_rehash_total"); got != 0 {
		t.Errorf("quiet tree rehashed %d times", got)
	}
}

// TestTableBytesGauge: a leaf exports its table's footprint beside its entry
// count, and the two give the table's bytes per agent — a slot at 3/8 to 3/4
// fill plus the id's bytes with their prefix and the arena's spare capacity.
func TestTableBytesGauge(t *testing.T) {
	const numAgents = 2048
	c, reg := newMeteredCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	client := c.service.ClientFor(c.nodes[1])
	agents := make([]ids.AgentID, numAgents)
	for i := range agents {
		agents[i] = ids.AgentID(fmt.Sprintf("a-%07d", i))
		if _, err := client.Register(ctx, agents[i]); err != nil {
			t.Fatalf("register %s: %v", agents[i], err)
		}
	}
	s := reg.Snapshot()
	entries, bytes := s.Gauge("agentloc_core_iagent_table_entries"), s.Gauge("agentloc_core_iagent_table_bytes")
	if entries != numAgents {
		t.Fatalf("table entries = %d, want %d", entries, numAgents)
	}
	perAgent := float64(bytes) / float64(entries)
	t.Logf("table: %d B for %d entries, %.1f B/agent", bytes, entries, perAgent)
	if perAgent < 16*4/3+10 || perAgent > 16*8/3+20 {
		t.Errorf("table bytes per agent = %.1f, want between %d and %d", perAgent, 16*4/3+10, 16*8/3+20)
	}
	for _, a := range agents[:numAgents-8] {
		if err := client.Deregister(ctx, a, Assignment{}); err != nil {
			t.Fatalf("deregister %s: %v", a, err)
		}
	}
	if after := reg.Snapshot().Gauge("agentloc_core_iagent_table_bytes"); after >= bytes/8 {
		t.Errorf("table bytes = %d after deregistering all but 8 agents, was %d", after, bytes)
	}
}

// TestMailStaleAnswersAreRetries holds deposits and check-ins to the same
// invariant as every other operation — each stale answer an IAgent counts is
// one client retry — and checks that each observes its latency once. A forced
// split stales what was taken before it: every LHAgent's hash copy, which
// deposits resolve through, and the assignments the check-ins pass.
func TestMailStaleAnswersAreRetries(t *testing.T) {
	c, reg := newMeteredCluster(t, quietConfig(), 3)
	ctx := testCtx(t)
	clients := make([]*Client, len(c.nodes))
	for i, n := range c.nodes {
		clients[i] = c.service.ClientFor(n)
	}
	agents := make([]ids.AgentID, 16)
	homes := make(map[ids.AgentID]platform.NodeID, len(agents))
	assigns := make(map[ids.AgentID]Assignment, len(agents))
	for i := range agents {
		agents[i] = ids.AgentID(fmt.Sprintf("mail-%02d", i))
		assign, err := clients[i%len(clients)].Register(ctx, agents[i])
		if err != nil {
			t.Fatal(err)
		}
		homes[agents[i]], assigns[agents[i]] = c.nodes[i%len(c.nodes)].ID(), assign
	}
	forceSplit(t, c, ctx, "iagent-1", homes)

	// The agents the split moved go first, so every node's stale copy
	// answers at least one deposit.
	st := hashState(t, c, ctx)
	moved := func(a ids.AgentID) bool { owner, _, _ := st.OwnerOf(a); return owner != "iagent-1" }
	sort.SliceStable(agents, func(i, j int) bool { return moved(agents[i]) && !moved(agents[j]) })
	for i, a := range agents {
		if err := clients[i%len(clients)].Deposit(ctx, "post", a, "note", nil); err != nil {
			t.Fatalf("deposit for %s: %v", a, err)
		}
	}
	for _, a := range agents {
		if _, _, err := clients[0].CheckIn(ctx, a, assigns[a]); err != nil {
			t.Fatalf("check-in %s: %v", a, err)
		}
	}

	s := reg.Snapshot()
	if stale, retries := s.Counter("agentloc_core_iagent_stale_total"), s.Counter("agentloc_core_client_retries_total"); stale != retries {
		t.Errorf("stale answers = %d, retries = %d, want equal", stale, retries)
	}
	for _, op := range []string{"deposit", "checkin"} {
		if s.Counter("agentloc_core_client_retries_total", "op", op) == 0 {
			t.Errorf("no %s was answered stale; the split staled nothing", op)
		}
		if got := s.HistogramSnap("agentloc_core_" + op + "_latency_seconds").Count; got != uint64(len(agents)) {
			t.Errorf("%s latency observations = %d, want %d", op, got, len(agents))
		}
	}
}

// TestMetricsEndToEndSplit forces at least one split under load and checks
// the rehash counter, the tree gauges and the rendered exposition agree
// with the mechanism's own introspection.
func TestMetricsEndToEndSplit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TMax = 25
	cfg.TMin = 3
	cfg.CheckInterval = 30 * time.Millisecond
	cfg.RateWindow = 300 * time.Millisecond
	cfg.IAgentServiceTime = 0
	c, reg := newMeteredCluster(t, cfg, 3)
	ctx := testCtx(t)

	registerMany(t, c, ctx, 30)

	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := c.service.ClientFor(c.nodes[0])
		r := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stopLoad:
				return
			default:
			}
			_, _ = client.Locate(ctx, ids.AgentID(fmt.Sprintf("load-agent-%d", r.Intn(30))))
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	split := false
	for time.Now().Before(deadline) {
		stats, err := c.service.Stats(ctx)
		if err == nil && stats.Splits >= 1 {
			split = true
			break
		}
		time.Sleep(30 * time.Millisecond)
	}
	close(stopLoad)
	wg.Wait()
	if !split {
		t.Fatal("no split during load phase")
	}

	// A split requested during the load phase can still be completing when
	// the load stops, so the counter and the introspection snapshot are
	// fetched at slightly different instants. Re-read both until they agree.
	var stats HashStatsResp
	var s metrics.Snapshot
	settle := time.Now().Add(5 * time.Second)
	for {
		var err error
		stats, err = c.service.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		s = reg.Snapshot()
		if s.Counter("agentloc_core_rehash_total", "op", "split") == stats.Splits &&
			s.Counter("agentloc_core_rehash_total", "op", "merge") == stats.Merges &&
			s.Gauge("agentloc_core_hashtree_leaves") == int64(stats.NumIAgents) {
			break
		}
		if time.Now().After(settle) {
			break // fall through to the assertions for a real diagnostic
		}
		time.Sleep(30 * time.Millisecond)
	}
	if got := s.Counter("agentloc_core_rehash_total", "op", "split"); got != stats.Splits {
		t.Errorf("split counter = %d, introspection says %d", got, stats.Splits)
	}
	if got := s.Counter("agentloc_core_rehash_total", "op", "merge"); got != stats.Merges {
		t.Errorf("merge counter = %d, introspection says %d", got, stats.Merges)
	}
	if got := s.Gauge("agentloc_core_hashtree_leaves"); got != int64(stats.NumIAgents) {
		t.Errorf("leaf gauge = %d, introspection says %d", got, stats.NumIAgents)
	}
	if got := s.Gauge("agentloc_core_hashtree_depth"); got < 1 {
		t.Errorf("tree depth gauge = %d after a split", got)
	}

	// The full exposition renders valid Prometheus text and carries the
	// families the dashboards key on.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if n := metricstest.ValidateText(t, text); n == 0 {
		t.Fatal("empty exposition")
	}
	for _, want := range []string{
		"agentloc_core_locate_latency_seconds_bucket{",
		`agentloc_transport_envelopes_sent_total{kind=`,
		`agentloc_core_rehash_total{kind=`,
		"agentloc_core_hashtree_leaves ",
		`agentloc_platform_agents_hosted{node=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}
