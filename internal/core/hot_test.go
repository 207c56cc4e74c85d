package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/raceflag"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
)

// TestLocateRemoteAllocBudget is the end-to-end allocation budget of the
// paper's one-hop locate: Client.Locate, whois at the local LHAgent, one
// request over loopback TCP served on the IAgent's read loop, the table, and
// back — both nodes' allocations counted, since they share the process.
func TestLocateRemoteAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	client, targets := newHotTCPPair(t, 64)
	ctx := context.Background()
	var locErr error
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := client.Locate(ctx, targets[i%len(targets)]); err != nil {
			locErr = err
		}
		i++
	})
	if locErr != nil {
		t.Fatal(locErr)
	}
	if allocs > 20 {
		t.Errorf("remote Locate allocates %.1f times, budget 20", allocs)
	}
}

// TestCachedLocateAllocBudget is the budget of a locate the client cache
// answers: the steady state of a popular agent, which touches no network
// (measured: 2). The caller counts every RPC, so a miss cannot pass for a hit.
func TestCachedLocateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	targets := make([]ids.AgentID, 64)
	reg := c.service.ClientFor(c.nodes[0])
	for i := range targets {
		targets[i] = ids.AgentID(fmt.Sprintf("cached-%02d", i))
		if _, err := reg.Register(ctx, targets[i]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := quietConfig()
	cfg.LocateCacheTTL = time.Hour
	cc := newCountingCaller(NodeCaller{N: c.nodes[1]})
	client := NewClient(cc, cfg)
	for _, a := range targets {
		if _, err := client.Locate(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	rpcs := cc.total()
	var locErr error
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := client.Locate(ctx, targets[i%len(targets)]); err != nil {
			locErr = err
		}
		i++
	})
	if locErr != nil {
		t.Fatal(locErr)
	}
	if got := cc.total() - rpcs; got != 0 {
		t.Fatalf("warm-cache locates sent %d RPCs, want 0", got)
	}
	t.Logf("%.1f allocs per cached Locate", allocs)
	if allocs > 2 {
		t.Errorf("a cached Locate allocates %.1f times, budget 2", allocs)
	}
}

// TestCheckpointFullPushAllocBudget is the budget of BenchmarkCheckpointFullPush's
// path, sender and receiver together: per shipped entry, the id the buddy's
// copy keeps and not much else (the gob form of the same push took 3 to 4).
func TestCheckpointFullPushAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const entries = 1 << 17
	leaf, buddy, ctx := fullPushLeaf(t, entries)
	allocs := testing.AllocsPerRun(2, func() { fullPush(t, leaf, buddy, ctx) })
	if perEntry := allocs / entries; perEntry > 1.5 {
		t.Errorf("a full push allocates %.2f times per shipped entry, budget 1.5", perEntry)
	}
}

// TestWhoisLocalAllocBudget is the budget of the step every operation starts
// with (BenchmarkWhoisLocal's path): a whois answered by value from the local
// LHAgent's installed copy.
func TestWhoisLocalAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	n, err := platform.NewNode(platform.Config{ID: "node-0", Link: net})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	svc, err := Deploy(context.Background(), quietConfig(), []*platform.Node{n})
	if err != nil {
		t.Fatal(err)
	}
	client := svc.ClientFor(n)
	ctx := context.Background()
	if _, err := client.Whois(ctx, "first-copy"); err != nil {
		t.Fatal(err)
	}
	var whoErr error
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := client.Whois(ctx, "a-0000042"); err != nil {
			whoErr = err
		}
	})
	if whoErr != nil {
		t.Fatal(whoErr)
	}
	if allocs > 4 {
		t.Errorf("local whois allocates %.1f times, budget 4", allocs)
	}
}

// TestUpdateBatchLogsBeforeAck: every update of an acknowledged batch is in
// the WAL, in batch order, once per record on the writes counter — the batch
// is one append, but the counter's meaning did not change.
func TestUpdateBatchLogsBeforeAck(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	dir := t.TempDir()
	node, reg := durableNode(t, net, "node-0", dir)
	if _, err := Deploy(context.Background(), quietConfig(), []*platform.Node{node}); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counter("agentloc_snapshot_writes_total", "kind", "wal")
	req := UpdateBatchReq{}
	for i := 0; i < 40; i++ {
		req.Updates = append(req.Updates, UpdateReq{Agent: ids.AgentID(fmt.Sprintf("batched-%02d", i)), Node: "node-0"})
	}
	var resp UpdateBatchResp
	if err := node.CallAgent(testCtx(t), "node-0", "iagent-1", KindUpdateBatch, &req, &resp); err != nil {
		t.Fatal(err)
	}
	for i, ack := range resp.Acks {
		if ack.Status != StatusOK {
			t.Fatalf("ack %d = %+v", i, ack)
		}
	}
	if got := reg.Snapshot().Counter("agentloc_snapshot_writes_total", "kind", "wal") - before; got != uint64(len(req.Updates)) {
		t.Errorf("wal writes counter moved by %d, want one per record (%d)", got, len(req.Updates))
	}
	// A second handle on the directory reads what a crash right now would
	// leave: the acknowledged batch, whole and in order.
	cold, err := snapshot.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	rec, err := cold.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	for _, r := range rec.Records {
		if r.Op == snapshot.OpPut && len(r.Agent) > 8 && r.Agent[:8] == "batched-" {
			logged = append(logged, r.Agent)
		}
	}
	if len(logged) != len(req.Updates) {
		t.Fatalf("WAL holds %d of the batch's %d records", len(logged), len(req.Updates))
	}
	for i, a := range logged {
		if a != string(req.Updates[i].Agent) {
			t.Fatalf("WAL record %d is %s, want %s", i, a, req.Updates[i].Agent)
		}
	}
}
