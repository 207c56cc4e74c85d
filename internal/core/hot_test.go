package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/raceflag"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// TestLocateRemoteAllocBudget is the end-to-end allocation budget of the
// paper's one-hop locate: Client.Locate, whois at the local LHAgent, one
// request over loopback TCP served on the IAgent's read loop, the table, and
// back — both nodes' allocations counted, since they share the process
// (measured: 0 — deadlines, requests and responses pooled, the reply copied
// into the call slot's buffer and answered from the leaf's prebuilt answers;
// 8 while each of those was allocated per call, 11 while the call rode inside
// a platform wrapper, 13 while every miss built an RPC counter nothing read).
func TestLocateRemoteAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	client, targets := newHotTCPPair(t, 64, 1)
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
	t.Logf("%.1f allocs per remote Locate", allocs)
	if allocs > 0 {
		t.Errorf("remote Locate allocates %.1f times, budget 0", allocs)
	}
}

// TestMoveRemoteAllocBudget is the budget of an unbatched remote move: a
// MoveNotifyTo with a cached assignment, one update over loopback TCP through
// the IAgent's mailbox, write and table, both nodes' allocations counted
// (measured: 0 — the read loop queues the request with a pooled copy of its
// frame, the mailbox loop replies, and the agent id is a view of that copy;
// 3 while the request had a goroutine and a copy of the frame of its own and
// the agent id was decoded into a string; 4 while the leaf boxed its ack; 7
// while it decoded into a request of its own and built an ack slice and a
// change slice per update; 11 while the deadline, the request and the ack
// were allocated per call and every reply was cloned out of the read buffer;
// 14 while the mailbox request built its result channel and the call's
// deadline built a Done channel and timer, 18 while the call rode inside a
// platform wrapper, 20 while an untraced move built an RPC counter nothing
// read, 21 while the untraced attempt still built its span name).
func TestMoveRemoteAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	client, targets := newHotTCPPair(t, 64, 1)
	ctx := context.Background()
	assigns := make([]Assignment, len(targets))
	for i, a := range targets {
		assign, err := client.MoveNotifyTo(ctx, a, "node-0", Assignment{})
		if err != nil {
			t.Fatal(err)
		}
		assigns[i] = assign
	}
	nodes := []platform.NodeID{"node-1", "node-0"}
	var moveErr error
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		k := i % len(targets)
		if _, err := client.MoveNotifyTo(ctx, targets[k], nodes[i%2], assigns[k]); err != nil {
			moveErr = err
		}
		i++
	})
	if moveErr != nil {
		t.Fatal(moveErr)
	}
	t.Logf("%.1f allocs per unbatched remote move", allocs)
	if allocs > 0 {
		t.Errorf("an unbatched remote move allocates %.1f times, budget 0", allocs)
	}
}

// TestLocateBatchAllocBudget is the budget of BenchmarkLocateBatchTCP's path:
// a 64-target LocateBatch over four leaves on the far node — one whois-batch,
// four frames over loopback TCP, both nodes' allocations counted (measured:
// 4 — the result map's, the rest in a pooled batchCall and each leaf's answer
// written straight off the frame into a pooled buffer; 33
// while the batch built its sort, requests, answers and legs per call, the
// LHAgent copied its leaf list and each leaf built a list of ids and one of
// results; 39, posted from the caller's goroutine under one deadline, before
// each call's deadline, request and reply were pooled; 53 with a
// goroutine, a deadline and a request per frame and a map to drop repeated
// targets, 65 while each frame rode inside a platform wrapper, 338 with one
// whois per target and ids decoded into strings).
func TestLocateBatchAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	client, targets := newHotTCPPair(t, 64, 4)
	ctx := context.Background()
	var batchErr error
	allocs := testing.AllocsPerRun(200, func() {
		if got, err := client.LocateBatch(ctx, targets); err != nil || len(got) != len(targets) {
			batchErr = fmt.Errorf("located %d of %d: %v", len(got), len(targets), err)
		}
	})
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	t.Logf("%.1f allocs per 64-target LocateBatch", allocs)
	if allocs > 6 {
		t.Errorf("a 64-target LocateBatch allocates %.1f times, budget 6", allocs)
	}
}

// TestDiscoverAllocBudget is the budget of a capability query over four
// leaves on the far node, all 64 agents matching: one leaves query at the
// local LHAgent, four discover frames over loopback TCP, the leaves' answers
// and the merge, both nodes' allocations counted (measured: 2 — the result
// and the one string its ids share, the rest in a pooled discoverCall and
// each leaf's answer gathered in pooled scratch and written into a pooled
// buffer; 39 while the discovery built its requests, answers and
// legs per call, the LHAgent copied its leaf list and each leaf decoded,
// normalized and copied the query's tags and its matches; 41, every frame
// posted from the caller's goroutine under one deadline and one request, each
// match's agent id a view of its reply, the leaf's match list sized once;
// 153 with a goroutine, a deadline and a request per frame, a string per
// match and a map to merge them; 165 to 167 while each frame rode inside a
// platform wrapper, and 182 while both sorts went through sort.Slice and
// every untraced operation built an RPC counter).
func TestDiscoverAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	client, targets := newHotTCPPair(t, 64, 4)
	ctx := context.Background()
	for _, a := range targets {
		if _, err := client.Advertise(ctx, a, []string{"ocr"}, Assignment{}); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Caps: []string{"ocr"}}
	var discErr error
	allocs := testing.AllocsPerRun(200, func() {
		if got, err := client.Discover(ctx, q); err != nil || len(got) != len(targets) {
			discErr = fmt.Errorf("discovered %d of %d: %v", len(got), len(targets), err)
		}
	})
	if discErr != nil {
		t.Fatal(discErr)
	}
	t.Logf("%.1f allocs per 4-leaf Discover of 64 matches", allocs)
	if allocs > 4 {
		t.Errorf("a 4-leaf Discover allocates %.1f times, budget 4", allocs)
	}
}

// servedLeg has the leaf serve one fan-out leg as a remote one is served:
// HandleConcurrent on the request's frame, then the answer encoded into buf,
// as the link encodes it into the reply.
func servedLeg(leaf *IAgentBehavior, ctx *platform.Context, kind string, payload, buf []byte) ([]byte, error) {
	answer, _, err := leaf.HandleConcurrent(ctx, kind, payload)
	if err != nil {
		return buf, err
	}
	return transport.AppendV(buf[:0], answer, wire.MsgVersion)
}

// TestIAgentServedLegOwnsItsAnswer: a leaf has served a batch or discovery
// leg — inside its server span — when HandleConcurrent returns, so the
// request's frame may be overwritten before the answer is encoded, as a read
// loop's buffer is by the next frame.
func TestIAgentServedLegOwnsItsAnswer(t *testing.T) {
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	agents := ownedIDs(t, leaf, "a", 8)
	var req UpdateBatchReq
	for _, a := range agents {
		req.Updates = append(req.Updates, UpdateReq{Agent: a, Node: "node-1", Capabilities: []string{"ocr"}})
	}
	serve(t, leaf, ctx, KindUpdateBatch, req)
	answer := func(kind string, req, resp any) {
		t.Helper()
		payload, err := transport.EncodeV(req, wire.MsgVersion)
		if err != nil {
			t.Fatal(err)
		}
		answer, _, err := leaf.HandleConcurrent(ctx, kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			payload[i] = 0xff
		}
		buf, err := transport.AppendV(nil, answer, wire.MsgVersion)
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.Decode(buf, resp); err != nil {
			t.Fatal(err)
		}
	}
	var batch LocateBatchResp
	answer(KindLocateBatch, LocateBatchReq{Agents: agents}, &batch)
	if len(batch.Results) != len(agents) {
		t.Fatalf("batch answered %d of %d", len(batch.Results), len(agents))
	}
	for i, r := range batch.Results {
		if r.Status != StatusOK || r.Node != "node-1" {
			t.Fatalf("%s answered %+v", agents[i], r)
		}
	}
	var disc DiscoverResp
	answer(KindDiscover, DiscoverReq{Caps: []string{"ocr"}, Limit: 64}, &disc)
	if disc.Status != StatusOK || len(disc.Matches) != len(agents) {
		t.Fatalf("discovery answered %+v", disc)
	}
	for _, m := range disc.Matches {
		if !slices.Contains(agents, m.Agent) || m.Node != "node-1" {
			t.Fatalf("discovery answered %+v", m)
		}
	}
}

// TestIAgentServeLocateBatchAllocBudget is what a leaf adds to one leg of a
// LocateBatch: a 16-id frame served and its answer encoded (measured: 0, the
// answer written into a pooled buffer; 3 while the leg listed the frame's
// ids, listed their results and boxed the response).
func TestIAgentServeLocateBatchAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	agents := ownedIDs(t, leaf, "a", 16)
	update(t, leaf, ctx, agents, "node-1")
	payload, err := transport.EncodeV(LocateBatchReq{Agents: agents}, wire.MsgVersion)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	var serveErr error
	allocs := testing.AllocsPerRun(1000, func() {
		if buf, err = servedLeg(leaf, ctx, KindLocateBatch, payload, buf); err != nil {
			serveErr = err
		}
	})
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	var resp LocateBatchResp
	if err := transport.Decode(buf, &resp); err != nil || len(resp.Results) != len(agents) {
		t.Fatalf("answered %d of %d: %v", len(resp.Results), len(agents), err)
	}
	for i, r := range resp.Results {
		if r.Status != StatusOK || r.Node != "node-1" {
			t.Fatalf("%s answered %+v", agents[i], r)
		}
	}
	t.Logf("%.1f allocs per served LocateBatch leg", allocs)
	if allocs > 0 {
		t.Errorf("a served LocateBatch leg allocates %.1f times, budget 0", allocs)
	}
}

// TestIAgentServeDiscoverAllocBudget is what a leaf adds to one leg of a
// Discover: a two-tag query matching 16 of its agents served and its answer
// encoded (measured: 0, the query read as views of the frame and the answer
// gathered in pooled scratch and written into a pooled buffer; 6 while the
// leg decoded the query, normalized and copied its tags, copied the index's
// matches, listed the answer's and boxed the response).
func TestIAgentServeDiscoverAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	leaf, _, ctx := bareLeaf(t, quietConfig(), false)
	agents := ownedIDs(t, leaf, "a", 32)
	req := UpdateBatchReq{}
	for i, a := range agents {
		u := UpdateReq{Agent: a, Node: "node-1", Capabilities: []string{"ocr"}}
		if i%2 == 0 {
			u.Capabilities = append(u.Capabilities, "gpu")
		}
		req.Updates = append(req.Updates, u)
	}
	serve(t, leaf, ctx, KindUpdateBatch, req)
	payload, err := transport.EncodeV(DiscoverReq{Caps: []string{"ocr", "gpu"}, Near: "node-1", Limit: 64}, wire.MsgVersion)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	var serveErr error
	allocs := testing.AllocsPerRun(1000, func() {
		if buf, err = servedLeg(leaf, ctx, KindDiscover, payload, buf); err != nil {
			serveErr = err
		}
	})
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	var resp DiscoverResp
	if err := transport.Decode(buf, &resp); err != nil || resp.Status != StatusOK || len(resp.Matches) != len(agents)/2 {
		t.Fatalf("answered %+v: %v", resp, err)
	}
	t.Logf("%.1f allocs per served Discover leg", allocs)
	if allocs > 0 {
		t.Errorf("a served Discover leg allocates %.1f times, budget 0", allocs)
	}
}

// TestCachedLocateAllocBudget is the budget of a locate the client cache
// answers: the steady state of a popular agent, which touches no network and
// allocates nothing (2 while a hit still built the RPC-counting context). The
// caller counts every RPC, so a miss cannot pass for a hit.
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
	if allocs > 0 {
		t.Errorf("a cached Locate allocates %.1f times, budget 0", allocs)
	}
}

// TestCheckpointFullPushAllocBudget is the budget of BenchmarkCheckpointFullPush's
// path, sender and receiver together, per shipped entry (the gob form of the
// same push took 3 to 4, the binary one applied to a table ≈ 1; appended to
// the buddy's held record log it reads 0.00).
func TestCheckpointFullPushAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const entries = 1 << 17
	leaf, buddy, ctx := fullPushLeaf(t, entries)
	allocs := testing.AllocsPerRun(2, func() { fullPush(t, leaf, buddy, ctx) })
	perEntry := allocs / entries
	t.Logf("%.2f allocs per entry of a full push", perEntry)
	if perEntry > 0.1 {
		t.Errorf("a full push allocates %.2f times per shipped entry, budget 0.1", perEntry)
	}
}

// TestHandoffAllocBudget: a rehash's handoff of 2^14 records, one in 64 bound
// and one in 64 advertising, goes through the codec — encode and decode
// together — in a few allocations for the whole message, the decoded records a
// view of the frame (the six gob maps it was took ≈ 7 per entry), and is
// served into an empty leaf for the table it fills and not an allocation per
// record (a bound or advertising agent costs the maps that keep it a copy of
// its id and a cell or two).
func TestHandoffAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const records = 1 << 14
	req := &HandoffReq{}
	for i := range records {
		rec := snapshot.Record{Op: snapshot.OpPut, Agent: fmt.Sprintf("a-%07d", i), Node: fmt.Sprintf("node-%d", i%4), Load: uint64(i % 7)}
		switch i % 64 {
		case 1:
			rec.Handle = fmt.Sprintf("res@%d", i%5)
		case 2:
			rec.Caps = []string{"gpu"}
		}
		req.Records = snapshot.AppendStream(req.Records, rec)
	}
	var payload []byte
	var back HandoffReq
	codec := testing.AllocsPerRun(10, func() {
		var err error
		if payload, err = transport.Encode(req); err == nil {
			err = transport.Decode(payload, &back)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if !slices.Equal(back.Records, req.Records) {
		t.Fatal("the records did not survive the codec")
	}

	first, _, ctx := bareLeaf(t, quietConfig(), false)
	leaves := []*IAgentBehavior{first, {Cfg: first.Cfg, StateSnapshot: first.StateSnapshot}}
	for _, leaf := range leaves {
		if _, _, err := leaf.HandleConcurrent(ctx, KindIAgentPing, nil); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	served := testing.AllocsPerRun(1, func() { // into leaves[0], then leaves[1]
		if _, err := leaves[next].HandleRequest(ctx, KindHandoff, payload); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if n := leaves[1].leaf.table.Len(); n != records {
		t.Fatalf("the leaf holds %d of %d handed-off records", n, records)
	}
	t.Logf("%.0f allocs to encode and decode a %d-record handoff, %.3f per record served into a leaf", codec, records, served/records)
	if codec > 32 {
		t.Errorf("a handoff's encode and decode allocate %.0f times, budget 32", codec)
	}
	if served/records > 0.1 {
		t.Errorf("serving a handoff allocates %.3f times per record, budget 0.1", served/records)
	}
}

// TestWhoisLocalAllocBudget is the budget of the step every operation starts
// with (BenchmarkWhoisLocal's path): a whois answered by value from the local
// LHAgent's installed copy (measured: 0, its deadline and its request and
// response pooled; 3 while each was allocated per call).
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
	t.Logf("%.1f allocs per local whois", allocs)
	if allocs > 0 {
		t.Errorf("local whois allocates %.1f times, budget 0", allocs)
	}
}

// TestLocateLocalAllocBudget is the budget of a locate whose IAgent shares
// the client's node: whois and locate both answered in process by value
// (LocalAnswerer), the locate from the leaf's prebuilt answers.
func TestLocateLocalAllocBudget(t *testing.T) {
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
	targets := make([]ids.AgentID, 64)
	for i := range targets {
		targets[i] = ids.AgentID(fmt.Sprintf("local-%02d", i))
		if _, err := client.Register(ctx, targets[i]); err != nil {
			t.Fatal(err)
		}
	}
	var locErr error
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if node, err := client.Locate(ctx, targets[i%len(targets)]); err != nil || node != "node-0" {
			locErr = fmt.Errorf("located at %q: %v", node, err)
		}
		i++
	})
	if locErr != nil {
		t.Fatal(locErr)
	}
	t.Logf("%.1f allocs per same-node Locate", allocs)
	if allocs > 0 {
		t.Errorf("a same-node Locate allocates %.1f times, budget 0", allocs)
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

// TestFullSnapshotAllocBudget: the persister takes a leaf's section in the
// leaf's mailbox, so a full snapshot of a node whose leaf holds 2^14 records
// costs the sections and the store's write, and no codec between the two
// (measured: ≈ 180 allocations and 2.27 MiB; ≈ 580 and 3.6–3.9 MiB while each
// section came back as a gob-encoded call response).
func TestFullSnapshotAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const records = 1 << 14
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	node, _ := durableNode(t, net, "node-0", t.TempDir())
	node.Durable().SyncOnAppend = false
	cfg := crossVersionConfig()
	cfg.CheckInterval = time.Hour
	if _, err := Deploy(context.Background(), cfg, []*platform.Node{node}); err != nil {
		t.Fatal(err)
	}
	req := HandoffReq{}
	for i := range records {
		req.Records = snapshot.AppendStream(req.Records, snapshot.Record{Op: snapshot.OpPut, Agent: fmt.Sprintf("a-%07d", i), Node: fmt.Sprintf("node-%d", i%4)})
	}
	var ack Ack
	if err := node.CallAgent(testCtx(t), "node-0", "iagent-1", KindHandoff, req, &ack); err != nil || ack.Status != StatusOK {
		t.Fatalf("handoff: %v, %v", ack.Status, err)
	}
	p := &Persister{node: node, cfg: cfg}
	snap := func() {
		if n, err := p.WriteFullSnapshot(); err != nil || n != 2 {
			t.Fatalf("full snapshot: %d sections, %v; want the HAgent's and the leaf's", n, err)
		}
	}
	snap()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		snap()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	mib := float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
	t.Logf("a full snapshot of a %d-record leaf: %.0f allocs, %.2f MiB", records, allocs, mib)
	if allocs > 240 || mib > 2.75 {
		t.Errorf("a full snapshot allocates %.0f times and %.2f MiB, budget 240 and 2.75 MiB", allocs, mib)
	}
}
