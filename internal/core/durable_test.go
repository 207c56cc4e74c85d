package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// durableNode builds a platform node backed by a snapshot store in dir.
// SyncOnAppend is on: the tests crash nodes abruptly and every acknowledged
// update must survive.
func durableNode(t *testing.T, net *transport.Network, id platform.NodeID, dir string) (*platform.Node, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	store, err := snapshot.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	store.SyncOnAppend = true
	n, err := platform.NewNode(platform.Config{ID: id, Link: net, Metrics: reg, Durable: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close(); store.Close() })
	return n, reg
}

// TestDurableSectionCodecs round-trips the HAgent and IAgent section codecs,
// decodes an IAgent section an older build wrote (SectionIAgentTable), and
// checks corrupt input yields typed errors. A hash state has one form: what
// GetHash ships is the state prefix of the HAgent's section, and FromDTO
// refuses anything but one whole state with a typed error.
func TestDurableSectionCodecs(t *testing.T) {
	st := &State{
		Ver:       7,
		Tree:      hashtree.New("iagent-1"),
		Locations: map[ids.AgentID]platform.NodeID{"iagent-1": "node-0"},
	}

	hsec := hagentSection("hagent", st, 9, true)
	gotState, nextSeq, standby, err := decodeHAgentSection(hsec)
	if err != nil {
		t.Fatal(err)
	}
	if gotState.Ver != 7 || nextSeq != 9 || !standby || len(gotState.Locations) != len(st.Locations) {
		t.Fatalf("hagent section round trip: ver %d seq %d standby %v", gotState.Ver, nextSeq, standby)
	}

	leaf := newLeafState()
	leaf.apply([]change{
		{agent: "agent-a", hash: ids.AgentID("agent-a").Hash64(), node: "node-1", caps: []string{"ocr", "gpu"}, load: 3},
		{agent: "agent-b", hash: ids.AgentID("agent-b").Hash64(), node: "node-2", handle: "res@x"},
		{agent: "agent-c", hash: ids.AgentID("agent-c").Hash64(), node: "node-2", handle: "res@x", load: 1},
	})
	isec := iagentSection("iagent-1", st, leaf)
	_, got, err := decodeIAgentSection(isec)
	if err != nil {
		t.Fatal(err)
	}
	if want := readLeaf(leaf); !reflect.DeepEqual(readLeaf(got), want) {
		t.Fatalf("iagent section round trip: %v, want %v", readLeaf(got), want)
	}
	if members, _ := got.residence.Members("res@x"); len(members) != 2 {
		t.Fatalf("decoded handle res@x binds %v", members)
	}

	// A kind-2 section as the older build wrote it: a table dump and the
	// capability index, every agent unbound at load 0.
	legacy := parentSection(t, "iagent-1")
	_, old, err := decodeIAgentSection(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if old.table.Len() == 0 || old.caps.Len() == 0 || old.residence.Len() != 0 {
		t.Fatalf("older section decodes to %d entries, %d capability sets, %d handles", old.table.Len(), old.caps.Len(), old.residence.Len())
	}

	// Corrupt payloads must yield typed errors, never panics.
	for _, sec := range []snapshot.Section{hsec, isec, legacy} {
		for cut := 0; cut < len(sec.Payload); cut += 7 {
			trunc := sec
			trunc.Payload = sec.Payload[:cut]
			var err error
			if sec.Kind == SectionHAgent {
				_, _, _, err = decodeHAgentSection(trunc)
			} else {
				_, _, err = decodeIAgentSection(trunc)
			}
			if err != nil && !typedWireError(err) {
				t.Fatalf("cut %d of kind %d: untyped error %v", cut, sec.Kind, err)
			}
		}
	}

	// FromDTO takes a whole state and nothing else: every cut, a trailing
	// byte and a leaf without a location are typed errors.
	enc := st.DTO()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := FromDTO(enc[:cut]); !typedWireError(err) {
			t.Fatalf("state cut at %d of %d: %v, want a typed error", cut, len(enc), err)
		}
	}
	if _, err := FromDTO(append(enc, 0)); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("state with a trailing byte: %v, want ErrCorrupt", err)
	}
	lost := &State{Ver: 7, Tree: hashtree.PaperTree(), Locations: map[ids.AgentID]platform.NodeID{"IA0": "node-0"}}
	if _, err := FromDTO(lost.DTO()); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("state with leaves lacking a location: %v, want ErrCorrupt", err)
	}

	// On a running cluster, after a split and a merge, GetHash ships the
	// very bytes the HAgent's section begins with.
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	cfg := c.service.Config()
	hagent := func(kind string, req, resp any) {
		t.Helper()
		if err := c.nodes[1].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, kind, req, resp); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	perAgent := make(map[ids.AgentID]uint64)
	for agent := range registerMany(t, c, ctx, 16) {
		perAgent[agent] = 10
	}
	var resp RehashResp
	hagent(KindRequestSplit, RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if resp.Status != StatusOK {
		t.Fatalf("split = %+v", resp)
	}
	hagent(KindRequestMerge, RequestMergeReq{IAgent: "iagent-2", HashVersion: resp.HashVersion}, &resp)
	if resp.Status != StatusOK || resp.HashVersion != 3 {
		t.Fatalf("merge = %+v, want OK at v3", resp)
	}
	eventually(t, 5*time.Second, func(ctx context.Context) error {
		var hash GetHashResp
		hagent(KindGetHash, GetHashReq{}, &hash)
		sec := agentSection(t, c.nodes[0], cfg.HAgent)
		d := wire.NewDec(sec.Payload)
		st, err := decodeState(d)
		if err != nil {
			t.Fatal(err)
		}
		prefix := sec.Payload[:len(sec.Payload)-d.Remaining()]
		if published, err := FromDTO(hash.State); err != nil || published.Ver != st.Ver {
			time.Sleep(20 * time.Millisecond)
			return fmt.Errorf("published %v (%v), section at v%d", published, err, st.Ver)
		}
		if !bytes.Equal(hash.State, prefix) {
			t.Fatalf("GetHash shipped %x, the section's state is %x", hash.State, prefix)
		}
		return nil
	})
}

// agentSection takes an agent's section in its mailbox, as the persister does.
func agentSection(tb testing.TB, node *platform.Node, id ids.AgentID) (sec snapshot.Section) {
	tb.Helper()
	var err error
	if derr := node.Do(context.Background(), id, func(b platform.Behavior, ctx *platform.Context) {
		sec, err = b.(durableAgent).snapshotSection(ctx)
	}); derr != nil || err != nil {
		tb.Fatalf("section of %s: %v, %v", id, derr, err)
	}
	return sec
}

// typedWireError reports whether err is one of wire's typed decode errors.
func typedWireError(err error) bool {
	return errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrUnsupportedVersion)
}

// TestLeavesWriteNoDeltaFiles: on a durable node with checkpointing on, a
// leaf writes a delta file at birth and after a rehash, and nowhere else — a
// capability-carrying register is one WAL record, and a checkpoint push
// touches no disk at all.
func TestLeavesWriteNoDeltaFiles(t *testing.T) {
	cfg := failoverConfig()
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	node, reg := durableNode(t, net, "node-0", t.TempDir())
	svc, err := Deploy(context.Background(), cfg, []*platform.Node{node})
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{nodes: []*platform.Node{node}, service: svc}
	ctx := testCtx(t)
	homes := make(map[ids.AgentID]platform.NodeID)
	for i := 0; i < 8; i++ {
		agent := ids.AgentID(fmt.Sprintf("quiet-%d", i))
		if _, err := svc.ClientFor(node).Register(ctx, agent); err != nil {
			t.Fatal(err)
		}
		homes[agent] = node.ID()
	}
	// A split gives each leaf a sibling to checkpoint to; let the births
	// and the full pushes they owe settle.
	forceSplit(t, c, ctx, "iagent-1", homes)
	time.Sleep(4 * cfg.HeartbeatInterval)

	writes := func(kind string) uint64 {
		return reg.Snapshot().Counter("agentloc_snapshot_writes_total", "kind", kind)
	}
	pushed := func() (n uint64) {
		for _, kind := range []string{"full", "delta"} {
			for _, ia := range []string{"iagent-1", "iagent-2"} {
				n += reg.Snapshot().Counter("agentloc_checkpoint_entries_sent_total", "iagent", ia, "kind", kind)
			}
		}
		return n
	}
	deltas, wal, sent := writes("delta"), writes("wal"), pushed()

	if _, err := svc.ClientFor(node).RegisterWithCapabilities(ctx, "skilled", []string{"gpu"}); err != nil {
		t.Fatal(err)
	}
	if got := writes("wal") - wal; got != 1 {
		t.Errorf("register with capabilities: %d WAL records, want 1", got)
	}
	// The register dirties its leaf's entry: the next checkpoint push carries it.
	time.Sleep(4 * cfg.HeartbeatInterval)
	if pushed() == sent {
		t.Fatal("no checkpoint push carried the new entry")
	}
	if got := writes("delta") - deltas; got != 0 {
		t.Errorf("register and checkpoint pushes wrote %d delta files, want 0", got)
	}
}

// TestChaosFullClusterRestartRecovery is the acceptance scenario: a durable
// three-node cluster serves registers, moves, a split and deregisters; some
// nodes have full snapshots, others only birth sections plus WAL. Every
// node is then killed abruptly and rebuilt from disk with RecoverNode. After
// the restart every live agent must locate at exactly its last acknowledged
// home (zero stale answers), deregistered agents must stay gone, the hash
// version must be fenced past the pre-crash version, and the replay metric
// must account for the WAL records applied.
func TestChaosFullClusterRestartRecovery(t *testing.T) {
	cfg := failoverConfig()
	cfg.PlacementNodes = []platform.NodeID{"node-0", "node-1", "node-2"}
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })

	const numNodes = 3
	dirs := make([]string, numNodes)
	nodes := make([]*platform.Node, numNodes)
	for i := range nodes {
		dirs[i] = t.TempDir()
		nodes[i], _ = durableNode(t, net, platform.NodeID(fmt.Sprintf("node-%d", i)), dirs[i])
	}
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{nodes: nodes, service: svc}
	ctx := testCtx(t)

	// Register a population spread over all nodes.
	homes := make(map[ids.AgentID]platform.NodeID)
	for i := 0; i < 30; i++ {
		n := nodes[i%numNodes]
		agent := ids.AgentID(fmt.Sprintf("dur-agent-%d", i))
		if _, err := svc.ClientFor(n).Register(ctx, agent); err != nil {
			t.Fatalf("register %s: %v", agent, err)
		}
		homes[agent] = n.ID()
	}

	// A split spreads the table over two IAgents (and exercises WAL-logged
	// handoffs on the receiving node).
	forceSplit(t, c, ctx, "iagent-1", homes)

	// Node 0 (HAgent plus at least one IAgent) takes a full snapshot now;
	// everything after this point lives only in its WAL tail. The other
	// nodes recover purely from birth sections, checkpoint deltas and WAL.
	p, err := StartPersister(nodes[0], svc.Config(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.WriteFullSnapshot(); err != nil || n == 0 {
		t.Fatalf("full snapshot on node 0: %d sections, %v", n, err)
	}
	p.Stop()

	// Post-snapshot churn: moves (the agents' final homes) and deletions.
	moved := 0
	for agent := range homes {
		if moved >= 8 {
			break
		}
		target := nodes[(moved+1)%numNodes].ID()
		if _, err := svc.ClientFor(nodes[0]).MoveNotifyTo(ctx, agent, target, Assignment{}); err != nil {
			t.Fatalf("move %s: %v", agent, err)
		}
		homes[agent] = target
		moved++
	}
	var gone []ids.AgentID
	for agent := range homes {
		if len(gone) >= 3 {
			break
		}
		if err := svc.ClientFor(nodes[1]).Deregister(ctx, agent, Assignment{}); err != nil {
			t.Fatalf("deregister %s: %v", agent, err)
		}
		delete(homes, agent)
		gone = append(gone, agent)
	}

	preStats, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Let a checkpoint round land on disk, then kill the whole cluster.
	time.Sleep(4 * cfg.HeartbeatInterval)
	for _, n := range nodes {
		n.Crash()
	}

	// Cold start: fresh stores over the same directories, fresh nodes,
	// agents rebuilt purely from disk.
	nodes2 := make([]*platform.Node, numNodes)
	regs2 := make([]*metrics.Registry, numNodes)
	totalReplayed := 0
	recoveredIAgents := 0
	for i := range nodes2 {
		nodes2[i], regs2[i] = durableNode(t, net, platform.NodeID(fmt.Sprintf("node-%d", i)), dirs[i])
		rep, err := RecoverNode(nodes2[i], svc.Config())
		if err != nil {
			t.Fatalf("recover node %d: %v", i, err)
		}
		totalReplayed += rep.Replayed
		recoveredIAgents += len(rep.IAgents)
		// Client-only nodes still need their LHAgent for the read protocol.
		if !nodes2[i].Hosts(LHAgentID(nodes2[i].ID())) {
			if err := nodes2[i].Launch(LHAgentID(nodes2[i].ID()), &LHAgentBehavior{Cfg: svc.Config()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if recoveredIAgents < 2 {
		t.Fatalf("recovered only %d IAgents, want the split pair", recoveredIAgents)
	}
	if totalReplayed == 0 {
		t.Fatal("no WAL records replayed; the post-snapshot churn must live in the WAL")
	}
	for i, reg := range regs2 {
		if v := reg.Counter("agentloc_recovery_replayed_entries_total").Value(); v > 0 {
			break
		} else if i == len(regs2)-1 {
			t.Fatal("replay metric zero on every node")
		}
	}

	// The fence: the recovered primary runs one version past the pre-crash
	// state, so no pre-crash client mapping is current.
	var post HashStatsResp
	if err := nodes2[0].CallAgent(ctx, svc.Config().HAgentNode, svc.Config().HAgent, KindHashStats, nil, &post); err != nil {
		t.Fatalf("post-restart stats: %v", err)
	}
	if post.HashVersion != preStats.HashVersion+1 {
		t.Fatalf("hash version %d after restart, want fence %d", post.HashVersion, preStats.HashVersion+1)
	}
	if post.NumIAgents != preStats.NumIAgents {
		t.Fatalf("recovered %d IAgents in tree, want %d", post.NumIAgents, preStats.NumIAgents)
	}

	// Zero stale answers: every surviving agent locates at exactly its last
	// acknowledged home, from a cold client on every node.
	for i, n := range nodes2 {
		client := NewClient(NodeCaller{N: n}, svc.Config())
		for agent, want := range homes {
			got, err := client.Locate(ctx, agent)
			if err != nil {
				t.Fatalf("node %d: locate %s after restart: %v", i, agent, err)
			}
			if got != want {
				t.Fatalf("node %d: %s located at %s, want %s (stale answer)", i, agent, got, want)
			}
		}
		for _, agent := range gone {
			if node, err := client.Locate(ctx, agent); !errors.Is(err, ErrNotRegistered) {
				t.Fatalf("node %d: deregistered %s still resolves to %v (err %v)", i, agent, node, err)
			}
		}
	}

	// The recovery push converges the IAgents onto the fenced version.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lagging := 0
		for ia, node := range post.Locations {
			var ack Ack
			if err := nodes2[0].CallAgent(ctx, node, ia, KindIAgentPing, nil, &ack); err != nil || ack.HashVersion != post.HashVersion {
				lagging++
			}
		}
		if lagging == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d IAgents never adopted the fenced version %d", lagging, post.HashVersion)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
