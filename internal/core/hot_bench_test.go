package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// newHotTCPPair deploys the mechanism on two untraced nodes over loopback
// TCP: the HAgent and every IAgent on node-0, the returned client on node-1,
// so every Locate is a local whois plus one socket round trip. Each node has
// dialed the other, as in a cluster whose nodes all call each other. It
// registers n agents, splits iagent-1 until the hash function has the given
// number of leaves, and returns the agents' ids.
func newHotTCPPair(tb testing.TB, n, leaves int) (*Client, []ids.AgentID) {
	tb.Helper()
	links := make([]*transport.TCP, 2)
	for i := range links {
		l, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		links[i] = l
	}
	links[0].AddRoute("node-1", links[1].ListenAddr())
	links[1].AddRoute("node-0", links[0].ListenAddr())
	nodes := make([]*platform.Node, 2)
	for i := range nodes {
		node, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: links[i]})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { node.Close() })
		nodes[i] = node
	}
	cfg := quietConfig()
	cfg.PlacementNodes = []platform.NodeID{"node-0"}
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		tb.Fatal(err)
	}
	// Nothing in the set-up calls from node-0 to node-1, so node-0 would
	// never dial back. Any round trip dials; an LHAgent refuses a read from
	// another node with a remote error.
	var remote *transport.RemoteError
	if err := nodes[0].CallAgent(context.Background(), "node-1", LHAgentID("node-1"), KindLeaves, &LeavesReq{}, &LeavesResp{}); !errors.As(err, &remote) {
		tb.Fatalf("node-0's call to node-1 ended with %v, want a remote error", err)
	}
	client := svc.ClientFor(nodes[1])
	targets := make([]ids.AgentID, n)
	for i := range targets {
		targets[i] = ids.AgentID(fmt.Sprintf("a-%07d", i))
		if _, err := client.Register(context.Background(), targets[i]); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 1; i < leaves; i++ {
		splitLeaf(tb, svc, "iagent-1", targets)
	}
	return client, targets
}

// splitLeaf has the HAgent split leaf, as an overloaded IAgent would ask it
// to, reporting an even load over the agents the leaf owns. The split is
// published, handoffs done, when it returns.
func splitLeaf(tb testing.TB, svc *Service, leaf ids.AgentID, agents []ids.AgentID) {
	tb.Helper()
	ctx, cfg := context.Background(), svc.Config()
	var hash GetHashResp
	if err := svc.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindGetHash, GetHashReq{}, &hash); err != nil {
		tb.Fatal(err)
	}
	st, err := FromDTO(hash.State)
	if err != nil {
		tb.Fatal(err)
	}
	load := make(map[ids.AgentID]uint64)
	for _, a := range agents {
		if owner, _, err := st.OwnerOf(a); err == nil && owner == leaf {
			load[a] = 5
		}
	}
	req := RequestSplitReq{IAgent: leaf, HashVersion: st.Version(), Rate: 999, PerAgent: load}
	var resp RehashResp
	if err := svc.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestSplit, req, &resp); err != nil || resp.Status != StatusOK {
		tb.Fatalf("split of %s: %v, %v", leaf, resp.Status, err)
	}
}

// BenchmarkLocateRemoteTCP times Client.Locate through the whole remote
// path — whois at the local LHAgent, codec, a real loopback socket, the
// IAgent's concurrent fast path, the table and back — without the
// benchmark's 2^20 set-up. tcp_segs/op counts the TCP segments sent per
// Locate, both directions and pure ACKs included; it is left out where the
// kernel's counters cannot be read.
func BenchmarkLocateRemoteTCP(b *testing.B) {
	client, targets := newHotTCPPair(b, 1024, 1)
	ctx := context.Background()
	b.ReportAllocs()
	segs, segsOK := tcpOutSegs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Locate(ctx, targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if end, ok := tcpOutSegs(); ok && segsOK {
		b.ReportMetric(float64(end-segs)/float64(b.N), "tcp_segs/op")
	}
}

// tcpOutSegs reads the Tcp OutSegs counter of /proc/net/snmp: the segments
// every TCP socket of this network namespace has sent, each side of a
// loopback connection counting its own. ok is false where it cannot be read.
func tcpOutSegs() (n uint64, ok bool) {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, false
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "Tcp:" {
			continue
		}
		if names == nil { // the header line precedes the values
			names = fields
			continue
		}
		for i, name := range names {
			if name == "OutSegs" && i < len(fields) {
				n, err := strconv.ParseUint(fields[i], 10, 64)
				return n, err == nil
			}
		}
		return 0, false
	}
	return 0, false
}

// BenchmarkMoveRemoteTCP times an unbatched Client.MoveNotifyTo with a cached
// assignment through the whole remote path — codec, a real loopback socket,
// the read loop queueing the update on the IAgent's mailbox, the write and
// table, the mailbox loop's reply and back — without the benchmark's 2^20
// set-up.
func BenchmarkMoveRemoteTCP(b *testing.B) {
	client, targets := newHotTCPPair(b, 1024, 1)
	ctx := context.Background()
	assigns := make([]Assignment, len(targets))
	for i, a := range targets {
		assign, err := client.MoveNotifyTo(ctx, a, "node-0", Assignment{})
		if err != nil {
			b.Fatal(err)
		}
		assigns[i] = assign
	}
	nodes := []platform.NodeID{"node-1", "node-0"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(targets)
		if _, err := client.MoveNotifyTo(ctx, targets[k], nodes[i%2], assigns[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocateBatchTCP times a 64-target Client.LocateBatch across four
// leaves on the far node: one whois-batch at the local LHAgent, then one
// frame per leaf over loopback TCP, in flight together.
func BenchmarkLocateBatchTCP(b *testing.B) {
	client, targets := newHotTCPPair(b, 64, 4)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := client.LocateBatch(ctx, targets); err != nil || len(got) != len(targets) {
			b.Fatal(len(got), err)
		}
	}
}

// BenchmarkIAgentServeLocate times what the IAgent adds to a remote locate
// once the frame is in: HandleConcurrent on a leaf of 2^18 agents —
// responsibility check, counted table probe, answer — with the ids drawn at
// random so the probe misses the cache as it does under load.
func BenchmarkIAgentServeLocate(b *testing.B) {
	leaf, _, ctx := bareLeaf(b, quietConfig(), false)
	agents := make([]ids.AgentID, 1<<18)
	for i := range agents {
		agents[i] = ids.AgentID(fmt.Sprintf("a-%07d", i))
	}
	update(b, leaf, ctx, agents, "node-1")
	payloads := make([][]byte, 1<<16)
	for i := range payloads {
		payloads[i] = locatePayload(b, agents[(i*7919)%len(agents)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _, err := leaf.HandleConcurrent(ctx, KindLocate, payloads[i%len(payloads)])
		if err != nil || resp.(*LocateResp).Status != StatusOK {
			b.Fatal(resp, err)
		}
	}
}

// fullPushLeaf is a leaf of n agents with a buddy to push to, over the
// in-memory link; fullPush sends the buddy the whole table again.
func fullPushLeaf(tb testing.TB, n int) (leaf, buddy *IAgentBehavior, ctx *platform.Context) {
	leaf, buddy, ctx = bareLeaf(tb, failoverConfig(), true)
	update(tb, leaf, ctx, ownedIDs(tb, leaf, "a", n), "node-1")
	return leaf, buddy, ctx
}

func fullPush(tb testing.TB, leaf, buddy *IAgentBehavior, ctx *platform.Context) {
	leaf.mu.Lock()
	leaf.armFullCheckpoint()
	leaf.mu.Unlock()
	leaf.pushCheckpoint(ctx)
	buddy.mu.Lock()
	held := buddy.checkpoints["iagent-1"].Log.Len()
	buddy.mu.Unlock()
	if held != leaf.leaf.table.Len() {
		tb.Fatalf("after a full push the buddy holds %d records of %d", held, leaf.leaf.table.Len())
	}
}

// BenchmarkCheckpointFullPush times a full checkpoint push of a 2^17-entry
// leaf end to end: cut into chunks off the table, encoded, decoded, checked
// and appended to the log the buddy holds — what a leaf pays once when a
// rehash changes what it serves.
func BenchmarkCheckpointFullPush(b *testing.B) {
	leaf, buddy, ctx := fullPushLeaf(b, 1<<17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullPush(b, leaf, buddy, ctx)
	}
}
