package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// newTracedCluster is newTestCluster with a sample-everything span recorder
// on every node, returned alongside so tests can scrape them — the
// in-process analogue of hitting each locnode's /trace endpoint.
func newTracedCluster(t *testing.T, cfg Config, numNodes int) (*testCluster, []*trace.Recorder) {
	t.Helper()
	goroutinesReturn(t)
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, numNodes)
	recs := make([]*trace.Recorder, numNodes)
	for i := range nodes {
		id := fmt.Sprintf("node-%d", i)
		recs[i] = trace.NewRecorder(id, 1024, 1)
		n, err := platform.NewNode(platform.Config{
			ID:     platform.NodeID(id),
			Link:   net,
			Tracer: recs[i],
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
	return &testCluster{nodes: nodes, service: svc}, recs
}

// TestTraceEndToEndCacheMiss is the PR's acceptance scenario: one cache-miss
// locate reconstructed, from spans scraped off every node, as a single
// causal tree spanning three nodes — the client's node (root + LHAgent
// whois), the HAgent's node (cold-cache hash fetch) and the IAgent's node
// (table lookup) — with the per-phase latencies accounting for the
// client-observed latency.
func TestTraceEndToEndCacheMiss(t *testing.T) {
	cfg := quietConfig()
	cfg.HAgentNode = "node-0"
	// Pin the initial IAgent away from both the HAgent's node and the
	// client's node so the trace must cross three machines.
	cfg.PlacementNodes = []platform.NodeID{"node-1"}
	c, recs := newTracedCluster(t, cfg, 3)
	ctx := testCtx(t)

	// Register through node-1 so node-2's LHAgent stays cold: the traced
	// locate below is then a true miss that has to fetch the hash function
	// from the HAgent before it can query the IAgent.
	if _, err := c.service.ClientFor(c.nodes[1]).Register(ctx, "traced-agent"); err != nil {
		t.Fatal(err)
	}

	client := c.service.ClientFor(c.nodes[2])
	start := time.Now()
	where, err := client.Locate(ctx, "traced-agent")
	observed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if where != "node-1" {
		t.Fatalf("located at %s, want node-1", where)
	}

	// Scrape every node, exactly as locctl trace does over HTTP.
	var spans []trace.Span
	for _, r := range recs {
		spans = append(spans, r.Snapshot()...)
	}
	traceID := trace.LatestClientTraceID(recs[2].Snapshot())
	if traceID == 0 {
		t.Fatal("client node recorded no client-tier root")
	}
	roots := trace.Assemble(spans, traceID)
	if len(roots) != 1 {
		t.Fatalf("assembled %d roots, want 1:\n%s", len(roots), trace.RenderTree(roots))
	}
	root := roots[0]
	if root.Span.Name != "locate" || root.Span.Err != "" {
		t.Fatalf("root = %+v", root.Span)
	}
	if got := root.Span.Attrs["cache"]; got != "miss" {
		t.Errorf("cache attr = %q, want miss", got)
	}

	nodes := trace.Nodes(roots)
	if len(nodes) < 3 {
		t.Errorf("trace spans %d node(s) %v, want >= 3:\n%s", len(nodes), nodes, trace.RenderTree(roots))
	}

	// The phase breakdown must name the protocol's phases and account for
	// the client-observed latency: everything the root measured is within
	// what the caller clocked around it, and the phases cover at least
	// half of the root (the rest is local compute between RPCs).
	a := trace.Attribute(root)
	if a.Phases["whois"] <= 0 || a.Phases["iagent.locate"] <= 0 {
		t.Errorf("phases = %v, want whois and iagent.locate", a.Phases)
	}
	if a.Total > observed {
		t.Errorf("root span %v exceeds client-observed latency %v", a.Total, observed)
	}
	if a.Attributed > a.Total {
		t.Errorf("phases sum to %v > root %v", a.Attributed, a.Total)
	}
	if a.Attributed < a.Total/2 {
		t.Errorf("phases account for %v of %v (< half), unattributed %v",
			a.Attributed, a.Total, a.Unattributed())
	}

	// The server tier appears on the remote nodes: the whois child carries
	// the LHAgent's serve span, which in turn carries the HAgent fetch.
	if sample := os.Getenv("TRACE_OUT"); sample != "" {
		doc := map[string]any{
			"trace_id": fmt.Sprintf("%#x", traceID),
			"nodes":    nodes,
			"tree":     trace.RenderTree(roots),
			"spans":    spans,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sample, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceCacheHitStaysLocal pins the hit path's shape: with the location
// cache on, a repeat locate is answered without an RPC and its root span
// says so — cache=hit, rpcs=0, no child phases.
func TestTraceCacheHitStaysLocal(t *testing.T) {
	cfg := quietConfig()
	cfg.LocateCacheTTL = time.Minute
	c, recs := newTracedCluster(t, cfg, 2)
	ctx := testCtx(t)

	client := c.service.ClientFor(c.nodes[1])
	if _, err := client.Register(ctx, "hit-agent"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Locate(ctx, "hit-agent"); err != nil { // miss, fills cache
		t.Fatal(err)
	}
	if _, err := client.Locate(ctx, "hit-agent"); err != nil { // hit
		t.Fatal(err)
	}

	spans := recs[1].Snapshot()
	traceID := trace.LatestClientTraceID(spans)
	roots := trace.Assemble(spans, traceID)
	if len(roots) != 1 {
		t.Fatalf("assembled %d roots, want 1", len(roots))
	}
	root := roots[0]
	if root.Span.Attrs["cache"] != "hit" || root.Span.Attrs["rpcs"] != "0" {
		t.Errorf("hit root attrs = %v, want cache=hit rpcs=0", root.Span.Attrs)
	}
	if len(root.Children) != 0 {
		t.Errorf("cache hit spawned %d child spans:\n%s", len(root.Children), trace.RenderTree(roots))
	}
}

// TestTraceSpansCloseWithErrorOnPartition drops the network mid-protocol:
// every span of the failed locate must still close, with the root carrying
// the operation's error — a trace that loses its failed requests is useless
// for exactly the investigations it exists for.
func TestTraceSpansCloseWithErrorOnPartition(t *testing.T) {
	cfg := quietConfig()
	cfg.RetryBackoffBase = time.Millisecond
	cfg.RetryBackoffMax = 2 * time.Millisecond
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })

	recs := make([]*trace.Recorder, 2)
	nodes := make([]*platform.Node, 2)
	for i := range nodes {
		id := fmt.Sprintf("node-%d", i)
		recs[i] = trace.NewRecorder(id, 1024, 1)
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(id), Link: net, Tracer: recs[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	client := svc.ClientFor(nodes[1])
	if _, err := client.Register(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}

	// Cut node-1 off from node-0 (HAgent and IAgent both live there), then
	// locate with a short deadline: the op must fail, and its spans must
	// all be closed in the recorder with the failure attached to the root.
	net.Partition(platform.NodeID("node-0").Addr(), platform.NodeID("node-1").Addr())
	lctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	if _, err := client.Locate(lctx, "doomed"); err == nil {
		t.Fatal("locate across a partition succeeded")
	}

	spans := recs[1].Snapshot()
	traceID := trace.LatestClientTraceID(spans)
	roots := trace.Assemble(spans, traceID)
	if len(roots) != 1 {
		t.Fatalf("assembled %d roots, want 1", len(roots))
	}
	root := roots[0]
	if root.Span.Name != "locate" || root.Span.Err == "" {
		t.Errorf("failed locate's root = %+v, want an error status", root.Span)
	}
	var openOrErrless int
	for _, c := range root.Children {
		// Every child in the recorder is by construction closed (only End
		// records); the failing RPC attempts must carry their errors.
		if c.Span.Name == "iagent.locate" && c.Span.Err == "" {
			openOrErrless++
		}
	}
	if openOrErrless > 0 {
		t.Errorf("%d failed RPC spans closed without error:\n%s", openOrErrless, trace.RenderTree(roots))
	}
}
