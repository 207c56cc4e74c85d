package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// TestPrettyMetrics scrapes a registry the way locnode serves it and checks
// the rendering: scalars one line a series, histograms folded to
// count/mean/quantiles with seconds shown as durations.
func TestPrettyMetrics(t *testing.T) {
	reg := metrics.New()
	reg.Counter("agentloc_core_requests_total", "op", "locate").Add(42)
	reg.Counter("agentloc_core_requests_total", "op", "update").Add(7)
	reg.Gauge("agentloc_core_hashtree_leaves").Set(3)
	locate := reg.Histogram("agentloc_core_locate_latency_seconds", []float64{0.25, 0.5, 1})
	for _, v := range []float64{0.125, 0.375, 0.5, 0.75, 3.875} {
		locate.Observe(v)
	}
	rpc := reg.Histogram("agentloc_transport_rpc_latency_seconds", []float64{0.001}, "kind", "loc.locate")
	rpc.Observe(0.00025)
	rpc.Observe(0.00025)
	srv := httptest.NewServer(metrics.Handler(reg, nil))
	t.Cleanup(srv.Close)

	var b strings.Builder
	if err := metricsCmd([]string{strings.TrimPrefix(srv.URL, "http://")}, 5*time.Second, &b); err != nil {
		t.Fatal(err)
	}
	// Each line is the series padded to 64 columns, a space, then its value.
	var got [][2]string
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if len(line) < 66 || line[64] != ' ' {
			t.Fatalf("line %q is not a 64-column series name and a value", line)
		}
		got = append(got, [2]string{strings.TrimSpace(line[:64]), line[65:]})
	}
	want := [][2]string{
		{"agentloc_core_hashtree_leaves", "3"},
		{`agentloc_core_requests_total{op="locate"}`, "42"},
		{`agentloc_core_requests_total{op="update"}`, "7"},
		// mean = 5.625 s / 5
		{"agentloc_core_locate_latency_seconds", "count=5 mean=1.125s p50=437.5ms p90=1s p99=1s"},
		{`agentloc_transport_rpc_latency_seconds{kind="loc.locate"}`, "count=2 mean=250µs p50=500µs p90=900µs p99=990µs"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rendered\n%q\nwant\n%q", got, want)
	}
}

func TestMetricsCmdUsage(t *testing.T) {
	if err := metricsCmd(nil, 0, nil); err == nil {
		t.Error("missing target accepted")
	}
}

// TestTraceCmdEndToEnd runs the trace subcommand's whole pipeline against an
// in-process cluster: a traced locate from the probe's client, two cluster
// nodes scraped over real HTTP, and the merged spans reassembled into one
// causal tree with a latency attribution table.
func TestTraceCmdEndToEnd(t *testing.T) {
	network := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { network.Close() })

	nodes := make([]*platform.Node, 3)
	recs := make([]*trace.Recorder, 3)
	for i := range nodes {
		id := fmt.Sprintf("node-%d", i)
		recs[i] = trace.NewRecorder(id, 1024, 1)
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(id), Link: network, Tracer: recs[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	cfg := core.DefaultConfig()
	cfg.TMax = 1e9 // never rehash during the test
	cfg.HAgentNode = "node-0"
	cfg.PlacementNodes = []platform.NodeID{"node-1"}
	svc, err := core.Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)

	// Register through node-1 so the probe's locate below is a cold miss
	// that crosses all three nodes (hash fetch at node-0, IAgent at
	// node-1, probe at node-2).
	if _, err := svc.ClientFor(nodes[1]).Register(ctx, "traced"); err != nil {
		t.Fatal(err)
	}

	// The cluster nodes' /trace endpoints, exactly as locnode serves them.
	endpoints := make([]string, 2)
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(metrics.ObservabilityHandler(metrics.New(), nil, recs[i], nil))
		t.Cleanup(srv.Close)
		endpoints[i] = srv.URL + "/trace"
	}

	client := core.NewClient(core.NodeCaller{N: nodes[2]}, cfg)
	var out strings.Builder
	if err := traceCmd(ctx, client, recs[2], "traced", endpoints, 5*time.Second, &out); err != nil {
		t.Fatalf("traceCmd: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"traced is at node-1",
		"3 node(s)",
		"client locate",
		"whois",
		"iagent.locate",
		"@node-0", // the HAgent's hash fetch, proof the tree crosses nodes
		"@node-1",
		"latency attribution for locate:",
		"unattributed",
		"total",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trace output missing %q:\n%s", want, got)
		}
	}
}

// TestEventsCmd fetches a node's decision log over HTTP with and without a
// kind-prefix filter.
func TestEventsCmd(t *testing.T) {
	log := trace.NewLog(16)
	log.Emit("hagent", "rehash.split", "leaf 01 split")
	log.Emit("iagent-1", "iagent.adopt", "adopted leaf")
	srv := httptest.NewServer(metrics.ObservabilityHandler(metrics.New(), nil, nil, log))
	t.Cleanup(srv.Close)

	var out strings.Builder
	if err := eventsCmd([]string{srv.URL + "/events"}, 5*time.Second, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "rehash.split") || !strings.Contains(got, "iagent.adopt") {
		t.Errorf("unfiltered events missing entries:\n%s", got)
	}

	out.Reset()
	if err := eventsCmd([]string{srv.URL + "/events", "rehash."}, 5*time.Second, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "rehash.split") || strings.Contains(got, "iagent.adopt") {
		t.Errorf("kind filter not applied:\n%s", got)
	}

	if err := eventsCmd(nil, 0, nil); err == nil {
		t.Error("missing target accepted")
	}
}
