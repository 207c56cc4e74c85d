package core

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// parentStore is a one-node store written by the build at commit be5282f,
// the last whose IAgent sections are kind 2 (a location-table dump and a
// capability index) and whose WAL records carry no handle. It holds kind-2
// sections (two full snapshots, and the deltas of a later split) and WAL
// records with and without capability sets; want.json beside the store files
// is what that build's leaves answered just before the crash.
//
// It was generated from a separate checkout of be5282f with this file copied
// into its internal/core:
//
//	AGENTLOC_WRITE_STORE=<this directory>/testdata/parent-store \
//	    go test -run TestWriteCrossVersionStore ./internal/core
const parentStore = "testdata/parent-store"

// storeAgent is one agent's expected answer in want.json.
type storeAgent struct {
	Node platform.NodeID
	Caps []string
}

func crossVersionConfig() Config {
	cfg := quietConfig()
	cfg.HAgentNode = "node-0"
	cfg.PlacementNodes = []platform.NodeID{"node-0"}
	return cfg
}

// TestWriteCrossVersionStore writes the store above when
// AGENTLOC_WRITE_STORE names a directory, and skips otherwise. It drives a
// one-node cluster through registers (every third with a capability set), a
// split, a full snapshot, a second split, then moves, late registers, a re-advertisement,
// deregisters and a group move that live only in the WAL, and crashes it.
func TestWriteCrossVersionStore(t *testing.T) {
	out := os.Getenv("AGENTLOC_WRITE_STORE")
	if out == "" {
		t.Skip("AGENTLOC_WRITE_STORE is not set")
	}
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	dir := t.TempDir()
	node, _ := durableNode(t, net, "node-0", dir)
	svc, err := Deploy(context.Background(), crossVersionConfig(), []*platform.Node{node})
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{nodes: []*platform.Node{node}, service: svc}
	ctx := testCtx(t)
	client := svc.ClientFor(node)
	want := map[ids.AgentID]storeAgent{}
	homes := map[ids.AgentID]platform.NodeID{}
	register := func(agent ids.AgentID, caps []string) {
		if _, err := client.RegisterWithCapabilities(ctx, agent, caps); err != nil {
			t.Fatal(err)
		}
		want[agent], homes[agent] = storeAgent{Node: node.ID(), Caps: caps}, node.ID()
	}
	for i := 0; i < 24; i++ {
		var caps []string
		if i%3 == 0 {
			caps = []string{"xv", []string{"even", "odd"}[i%2]}
		}
		register(ids.AgentID("xv-"+string(rune('a'+i))), caps)
	}
	forceSplit(t, c, ctx, "iagent-1", homes)
	p, err := StartPersister(node, svc.Config(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.WriteFullSnapshot(); err != nil || n == 0 {
		t.Fatalf("full snapshot: %d sections, %v", n, err)
	}
	p.Stop()
	// A second split writes its adoptions as delta sections; everything
	// after it lives in the WAL alone.
	forceSplit(t, c, ctx, "iagent-2", homes)
	for i, agent := range []ids.AgentID{"xv-b", "xv-c", "xv-d", "xv-j"} {
		to := platform.NodeID([]string{"node-1", "node-2"}[i%2])
		if _, err := client.MoveNotifyTo(ctx, agent, to, Assignment{}); err != nil {
			t.Fatal(err)
		}
		w := want[agent]
		w.Node = to
		want[agent] = w
	}
	register("xv-late-1", []string{"xv", "late"})
	register("xv-late-2", nil)
	if _, err := client.Advertise(ctx, "xv-a", []string{"xv", "extra"}, Assignment{}); err != nil {
		t.Fatal(err)
	}
	want["xv-a"] = storeAgent{Node: want["xv-a"].Node, Caps: []string{"extra", "xv"}}
	for _, agent := range []ids.AgentID{"xv-e", "xv-g"} {
		if err := client.Deregister(ctx, agent, Assignment{}); err != nil {
			t.Fatal(err)
		}
		delete(want, agent)
	}
	group := client.ResidenceGroup("res@xv")
	for _, agent := range []ids.AgentID{"xv-k", "xv-l", "xv-m"} {
		if err := group.Join(ctx, agent); err != nil {
			t.Fatal(err)
		}
	}
	if err := group.MoveTo(ctx, "node-3"); err != nil {
		t.Fatal(err)
	}
	for _, agent := range group.Members() {
		w := want[agent]
		w.Node = "node-3"
		want[agent] = w
	}
	node.Crash()

	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	copyFiles(t, dir, out)
	js, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "want.json"), js, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyFiles copies the files of a store directory into to, and returns to.
// Tests recover copies: recovery relaunches leaves, which write their birth
// sections into the store. A store skips files it does not name, such as
// want.json.
func copyFiles(tb testing.TB, from, to string) string {
	tb.Helper()
	files, err := os.ReadDir(from)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(from, f.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, f.Name()), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return to
}

// TestRecoverParentWrittenStore: a store the previous build wrote — kind-2
// IAgent sections and WAL records without handles — recovers every agent's
// address and capability set, and no deregistered agent.
func TestRecoverParentWrittenStore(t *testing.T) {
	dir := copyFiles(t, parentStore, t.TempDir())
	var want map[ids.AgentID]storeAgent
	if data, err := os.ReadFile(filepath.Join(parentStore, "want.json")); err != nil || json.Unmarshal(data, &want) != nil || len(want) == 0 {
		t.Fatalf("parent store has no readable want.json: %v", err)
	}
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	node, _ := durableNode(t, net, "node-0", dir)
	cfg := crossVersionConfig()
	report, err := RecoverNode(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.IAgents) != 3 || report.Entries != len(want) || report.Replayed == 0 {
		t.Fatalf("recovered %v with %d entries after %d records; want 3 leaves, %d entries", report.IAgents, report.Entries, report.Replayed, len(want))
	}
	ctx := testCtx(t)
	client := NewClient(NodeCaller{N: node}, cfg)
	caps := map[string]map[ids.AgentID]platform.NodeID{}
	for agent, w := range want {
		got, err := client.Locate(ctx, agent)
		if err != nil || got != w.Node {
			t.Errorf("%s locates at %q (%v), want %q", agent, got, err, w.Node)
		}
		for _, c := range w.Caps {
			if caps[c] == nil {
				caps[c] = map[ids.AgentID]platform.NodeID{}
			}
			caps[c][agent] = w.Node
		}
	}
	for _, agent := range []ids.AgentID{"xv-e", "xv-g"} {
		if got, err := client.Locate(ctx, agent); err == nil {
			t.Errorf("deregistered %s came back at %s", agent, got)
		}
	}
	for _, c := range slices.Sorted(maps.Keys(caps)) {
		requireSameSet(t, "discover "+c, discoverSet(t, ctx, client, Query{Caps: []string{c}}), caps[c])
	}
}
