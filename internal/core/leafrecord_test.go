package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"agentloc/internal/capindex"
	"agentloc/internal/clock"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// agentView is one agent as the reader yields it: resolved address, handle,
// capability set (joined) and load.
type agentView struct {
	node   platform.NodeID
	handle ids.ResidenceID
	caps   string
	load   uint32
}

// readLeaf reads every agent of a leaf through the reader, the ids copied out
// of the table.
func readLeaf(s leafState) map[ids.AgentID]agentView {
	out := map[ids.AgentID]agentView{}
	s.each(nil, func(r record) bool {
		out[ids.AgentID(strings.Clone(string(r.agent)))] = agentView{node: r.node, handle: r.handle, caps: strings.Join(r.caps, ","), load: r.load}
		return true
	})
	return out
}

// parentSection is the newest IAgent section of the given name in the store
// the previous build wrote (crossversion_test.go).
func parentSection(tb testing.TB, name string) snapshot.Section {
	tb.Helper()
	store, err := snapshot.Open(copyFiles(tb, parentStore, tb.TempDir()), nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer store.Close()
	rec, err := store.Recover()
	if err != nil {
		tb.Fatal(err)
	}
	var sec snapshot.Section
	for _, s := range append(rec.Sections, rec.Deltas...) {
		if s.Name == name && s.Kind == SectionIAgentTable {
			sec = s
		}
	}
	if sec.Payload == nil {
		tb.Fatalf("the parent store holds no kind-2 section of %s", name)
	}
	return sec
}

// durableLeaf is bareLeaf on a durable node: the IAgent "iagent-1" of a
// one-leaf state, driven by hand, logging to a store in dir.
func durableLeaf(t *testing.T, dir string) (*IAgentBehavior, *platform.Context) {
	t.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	node, _ := durableNode(t, net, "node-0", dir)
	probe := make(ctxProbe, 1)
	if err := node.Launch("iagent-1", probe); err != nil {
		t.Fatal(err)
	}
	if err := node.CallAgent(context.Background(), "node-0", "iagent-1", "probe", nil, nil); err != nil {
		t.Fatal(err)
	}
	st := &State{Ver: 1, Tree: hashtree.New("iagent-1"), Locations: map[ids.AgentID]platform.NodeID{"iagent-1": "node-0"}}
	return &IAgentBehavior{Cfg: quietConfig(), StateSnapshot: st.DTO()}, <-probe
}

// recoverCopy runs RecoverNode on a copy of the store in dir, on a node of
// its own, and reads the recovered "iagent-1" back through its section.
func recoverCopy(t *testing.T, dir string) map[ids.AgentID]agentView {
	t.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	node, _ := durableNode(t, net, "node-0", copyFiles(t, dir, t.TempDir()))
	report, err := RecoverNode(node, quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(report.IAgents, []ids.AgentID{"iagent-1"}) {
		t.Fatalf("recovered %v, want iagent-1", report.IAgents)
	}
	_, leaf, err := decodeIAgentSection(agentSection(t, node, "iagent-1"))
	if err != nil {
		t.Fatal(err)
	}
	return readLeaf(leaf)
}

// TestLeafRecordSurvivesEveryForm: one leaf with locate-charged loads, a
// bound group of three whose handle one member's bound update from another
// node re-pointed, a capability set, and a handoff into the group's handle
// from a sender that still had it at its old address. Every agent's resolved
// address, handle and capability set come back through (a) a full snapshot,
// a crash and RecoverNode, (b) a delta section and the WAL tail after it, (c)
// a full checkpoint push, a delta and a takeover by the buddy and (d) a
// merge's handoff to the buddy; the load is that of the last section in (a)
// and (b), exact in (d), and not restored in (c), whose deltas do not carry
// it.
func TestLeafRecordSurvivesEveryForm(t *testing.T) {
	dir := t.TempDir()
	leaf, ctx := durableLeaf(t, dir)
	// The same writes go to a leaf that checkpoints to a buddy, for (c); the
	// agents are ones it owns.
	pair, buddy, pairCtx := bareLeaf(t, failoverConfig(), true)
	agents := ownedIDs(t, pair, "a", 8)
	group := ownedIDs(t, pair, "g", 3)
	handed := ownedIDs(t, pair, "h", 1)[0]
	before := func(leaf *IAgentBehavior, ctx *platform.Context) {
		update(t, leaf, ctx, agents, "node-1")
		for _, g := range group {
			serve(t, leaf, ctx, KindUpdate, UpdateReq{Agent: g, Node: "node-2", Residence: "res@g"})
		}
		serve(t, leaf, ctx, KindUpdate, UpdateReq{Agent: agents[3], Node: "node-1", Capabilities: []string{"ocr", "gpu"}})
	}
	// After the delta section: the WAL tail alone carries these.
	after := func(leaf *IAgentBehavior, ctx *platform.Context) {
		serve(t, leaf, ctx, KindUpdate, UpdateReq{Agent: group[1], Node: "node-5", Residence: "res@g"})
		serve(t, leaf, ctx, KindHandoff, HandoffReq{Records: stream(snapshot.Record{
			Op: snapshot.OpPut, Agent: string(handed), Node: "node-2", Handle: "res@g", Caps: []string{"tpu"}, Load: 4,
		})})
		serve(t, leaf, ctx, KindUpdate, UpdateReq{Agent: agents[0], Node: "node-3"})
	}
	charge := func(leaf *IAgentBehavior, ctx *platform.Context, n int) {
		for i, a := range append(slices.Clone(agents), group...) {
			for range (i+n)%4 + 1 {
				leaf.locateBytes(ctx, []byte(a))
			}
		}
	}
	before(leaf, ctx)
	charge(leaf, ctx, 0)
	persist(ctx, leaf)
	atSection := readLeaf(leaf.leaf)
	after(leaf, ctx)
	charge(leaf, ctx, 1)
	live := readLeaf(leaf.leaf)
	for _, a := range append(slices.Clone(group), handed) {
		if v := live[a]; v.node != "node-5" || v.handle != "res@g" {
			t.Fatalf("live %s = %+v; the group is at node-5", a, v)
		}
	}
	if live[handed].caps != "tpu" || live[handed].load == 0 || live[agents[3]].caps != "gpu,ocr" {
		t.Fatalf("live leaf: handed-off %+v, advertiser %+v", live[handed], live[agents[3]])
	}

	same := func(form string, got map[ids.AgentID]agentView, load func(ids.AgentID) uint32) {
		t.Helper()
		want := map[ids.AgentID]agentView{}
		for a, v := range live {
			v.load = load(a)
			want[a] = v
		}
		if !reflect.DeepEqual(got, want) {
			for a := range want {
				if got[a] != want[a] {
					t.Errorf("%s: %s = %+v, want %+v", form, a, got[a], want[a])
				}
			}
			t.Fatalf("%s: %d agents, want %d", form, len(got), len(want))
		}
	}
	same("delta section and WAL tail", recoverCopy(t, dir), func(a ids.AgentID) uint32 { return atSection[a].load })

	if err := ctx.Durable().WriteFull([]snapshot.Section{leaf.section(ctx.Self())}); err != nil {
		t.Fatal(err)
	}
	same("full snapshot", recoverCopy(t, dir), func(a ids.AgentID) uint32 { return live[a].load })

	// merged is the state a merge of iagent-1 into iagent-2 leaves.
	merged := func(leaf *IAgentBehavior) *State {
		st, err := FromDTO(leaf.StateSnapshot)
		if err != nil {
			t.Fatal(err)
		}
		tree, _, err := st.Tree.Merge("iagent-1")
		if err != nil {
			t.Fatal(err)
		}
		return &State{Ver: st.Ver + 1, Tree: tree, Locations: map[ids.AgentID]platform.NodeID{"iagent-2": "node-0"}}
	}
	sender, receiver, senderCtx := bareLeaf(t, quietConfig(), true)
	before(sender, senderCtx)
	charge(sender, senderCtx, 0)
	after(sender, senderCtx)
	charge(sender, senderCtx, 1)
	if ack := serve(t, sender, senderCtx, KindAdoptState, AdoptStateReq{State: merged(sender).DTO()}).(Ack); ack.Status != StatusOK {
		t.Fatalf("merge: %v", ack.Status)
	}
	if n := sender.leaf.table.Len(); n != 0 {
		t.Fatalf("the merged leaf kept %d agents", n)
	}
	same("handoff", readLeaf(receiver.leaf), func(a ids.AgentID) uint32 { return live[a].load })

	before(pair, pairCtx)
	pair.pushCheckpoint(pairCtx) // the full push
	after(pair, pairCtx)
	pair.pushCheckpoint(pairCtx) // the delta
	var ack Ack
	if err := pairCtx.Call(testCtx(t), "node-0", "iagent-2", KindAdoptState, AdoptStateReq{State: merged(pair).DTO(), PromoteCheckpointOf: "iagent-1"}, &ack); err != nil || ack.Status != StatusOK {
		t.Fatalf("takeover: %v, %v", ack.Status, err)
	}
	restored := readLeaf(buddy.leaf)
	for a, v := range restored {
		v.load = 0
		restored[a] = v
	}
	same("takeover", restored, func(ids.AgentID) uint32 { return 0 })
}

// TestSplitNewbornCrossesAsLaunched: the IAgent a split launches on another
// node crosses the wire as gob, boxed as a platform.Behavior the way the
// platform ships it. It arrives with its StateSnapshot byte for byte and with
// no leaf and no held copies; ensureRuntime then builds the leaf, which
// serves at the launched version.
func TestSplitNewbornCrossesAsLaunched(t *testing.T) {
	model, _, ctx := bareLeaf(t, quietConfig(), true)
	newborn := &IAgentBehavior{Cfg: model.Cfg, StateSnapshot: model.StateSnapshot}
	type box struct{ B platform.Behavior }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(box{newborn}); err != nil {
		t.Fatal(err)
	}
	var got box
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	arrived, ok := got.B.(*IAgentBehavior)
	if !ok {
		t.Fatalf("arrived as %T", got.B)
	}
	if !bytes.Equal(arrived.StateSnapshot, newborn.StateSnapshot) {
		t.Fatalf("StateSnapshot arrived as %x, launched as %x", arrived.StateSnapshot, newborn.StateSnapshot)
	}
	if arrived.leaf.table != nil || arrived.checkpoints != nil {
		t.Fatalf("a newborn arrived with a leaf %+v and held copies %v", arrived.leaf, arrived.checkpoints)
	}
	if err := arrived.ensureRuntime(ctx); err != nil {
		t.Fatal(err)
	}
	if arrived.leaf.table == nil || arrived.leaf.table.Len() != 0 || arrived.state.Load().Version() != 1 {
		t.Fatalf("ensureRuntime built a leaf of %v at version %d", arrived.leaf.table, arrived.state.Load().Version())
	}
	agent := ownedIDs(t, arrived, "a", 1)[0]
	serve(t, arrived, ctx, KindUpdate, UpdateReq{Agent: agent, Node: "node-3"})
	if r, ok := arrived.leaf.get(agent); !ok || r.node != "node-3" {
		t.Fatalf("the newborn's leaf holds %s as %+v, %v", agent, r, ok)
	}
}

// TestFakeClockClusterSplitsOntoAnotherNode: a split's newborn crosses to
// another node as gob, and the Config it is launched with must leave the
// clients' Clock behind — gob cannot encode a clock.Fake, and the launch
// failed with "gob: type not registered for interface: clock.Fake".
func TestFakeClockClusterSplitsOntoAnotherNode(t *testing.T) {
	cfg := quietConfig()
	cfg.Clock = clock.NewFake(time.Unix(1000, 0))
	cfg.PlacementNodes = []platform.NodeID{"node-1"} // the HAgent is on node-0
	c := newTestCluster(t, cfg, 2)
	ctx := testCtx(t)
	client := c.service.ClientFor(c.nodes[0])
	agents := make([]ids.AgentID, 16)
	for i := range agents {
		agents[i] = ids.AgentID(fmt.Sprintf("fc-%02d", i))
		if _, err := client.Register(ctx, agents[i]); err != nil {
			t.Fatal(err)
		}
	}
	splitLeaf(t, c.service, "iagent-1", agents)
	if !c.nodes[1].Hosts("iagent-2") {
		t.Fatalf("the newborn is not on node-1, which hosts %v", c.nodes[1].Agents())
	}
	// A stale copy's retry waits on the client's clock, so the check reads
	// through a client on the real one.
	real := cfg
	real.Clock = nil
	reader := NewClient(NodeCaller{N: c.nodes[0]}, real)
	for _, a := range agents {
		if at, err := reader.Locate(ctx, a); err != nil || at != "node-0" {
			t.Fatalf("Locate(%s) = %s, %v after the split; want node-0", a, at, err)
		}
	}
}

// TestRecoverSkipsLeafRetiredByMerge: a leaf a merge retired writes a last
// section whose state no longer holds it; a crash before the next full
// snapshot must not bring it back.
func TestRecoverSkipsLeafRetiredByMerge(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	dir := t.TempDir()
	node, _ := durableNode(t, net, "node-0", dir)
	cfg := crossVersionConfig()
	svc, err := Deploy(context.Background(), cfg, []*platform.Node{node})
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{nodes: []*platform.Node{node}, service: svc}
	ctx := testCtx(t)
	homes := map[ids.AgentID]platform.NodeID{}
	for _, a := range []ids.AgentID{"m-a", "m-b", "m-c", "m-d", "m-e", "m-f", "m-g", "m-h"} {
		if _, err := svc.ClientFor(node).Register(ctx, a); err != nil {
			t.Fatal(err)
		}
		homes[a] = node.ID()
	}
	forceSplit(t, c, ctx, "iagent-1", homes)
	var resp RehashResp
	req := RequestMergeReq{IAgent: "iagent-2", HashVersion: hashState(t, c, ctx).Version()}
	if err := node.CallAgent(ctx, svc.Config().HAgentNode, svc.Config().HAgent, KindRequestMerge, req, &resp); err != nil || resp.Status != StatusOK {
		t.Fatalf("merge: %v, %v", resp.Status, err)
	}
	for deadline := time.Now().Add(5 * time.Second); node.Hosts("iagent-2"); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("iagent-2 outlived its merge")
		}
	}
	node.Crash()

	node2, _ := durableNode(t, net, "node-0", dir)
	report, err := RecoverNode(node2, svc.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(report.IAgents, []ids.AgentID{"iagent-1"}) || report.Entries != len(homes) {
		t.Fatalf("recovered %v with %d entries, want iagent-1 with %d", report.IAgents, report.Entries, len(homes))
	}
	if slices.Contains(node2.Agents(), "iagent-2") {
		t.Fatalf("the retired iagent-2 runs again: %v", node2.Agents())
	}
	client := NewClient(NodeCaller{N: node2}, svc.Config())
	for a, want := range homes {
		if got, err := client.Locate(ctx, a); err != nil || got != want {
			t.Errorf("%s locates at %q (%v), want %q", a, got, err, want)
		}
	}
}

// leafStreamView is a stream's records as a leaf keeps them: by agent, the
// capability set normalized, IAgent and version dropped.
func leafStreamView(tb testing.TB, d *wire.Dec) map[string]snapshot.Record {
	tb.Helper()
	out := map[string]snapshot.Record{}
	for d.Remaining() > 0 {
		data, err := d.Bytes(wire.MaxFrameLen)
		if err != nil {
			tb.Fatal(err)
		}
		rec, err := snapshot.DecodeRecord(data)
		if err != nil {
			tb.Fatal(err)
		}
		rec.IAgent, rec.HashVersion, rec.Caps = "", 0, capindex.Normalize(rec.Caps)
		out[rec.Agent] = rec
	}
	return out
}

// FuzzLeafSectionDecode throws arbitrary payloads at the IAgent section
// decoder, as a SectionIAgentTable (legacy) or a SectionIAgent section. It
// must never panic and return only typed wire errors, and the records of a
// SectionIAgent payload that decodes must re-encode to the same records.
func FuzzLeafSectionDecode(f *testing.F) {
	st := &State{Ver: 3, Tree: hashtree.New("iagent-1"), Locations: map[ids.AgentID]platform.NodeID{"iagent-1": "node-0"}}
	full := newLeafState()
	full.apply([]change{
		{agent: "every-field", hash: ids.AgentID("every-field").Hash64(), node: "node-1", handle: "res@x", caps: []string{"gpu", "ocr"}, load: 9},
		{agent: "plain", hash: ids.AgentID("plain").Hash64(), node: "node-2"},
	})
	for _, leaf := range []leafState{full, newLeafState()} {
		f.Add(false, iagentSection("iagent-1", st, leaf).Payload)
	}
	f.Add(true, parentSection(f, "iagent-1").Payload)
	f.Add(true, []byte{})

	f.Fuzz(func(t *testing.T, legacy bool, payload []byte) {
		kind := SectionIAgent
		if legacy {
			kind = SectionIAgentTable
		}
		_, leaf, err := decodeIAgentSection(snapshot.Section{Kind: kind, Name: "iagent-1", Payload: payload})
		if err != nil {
			if !typedWireError(err) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if legacy {
			return
		}
		d := wire.NewDec(payload)
		if _, err := decodeState(d); err != nil {
			t.Fatal(err)
		}
		want := leafStreamView(t, d)
		if got := leafStreamView(t, wire.NewDec(leaf.appendRecords(nil))); !reflect.DeepEqual(got, want) {
			t.Fatalf("records re-encode as %v, decoded %v", got, want)
		}
	})
}

// TestFullSnapshotKeepsBusyAgent: a persister whose deadline is shorter than a
// leaf's service time cannot take that leaf's section. The full snapshot is
// then not written — Stop's final one reports why — and the WAL not rotated,
// so a cold restart still recovers the leaf and every agent it serves from its
// birth section and the WAL.
func TestFullSnapshotKeepsBusyAgent(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	dir := t.TempDir()
	node, _ := durableNode(t, net, "node-0", dir)
	cfg := crossVersionConfig()
	cfg.IAgentServiceTime = 50 * time.Millisecond
	svc, err := Deploy(context.Background(), cfg, []*platform.Node{node})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	agents := []ids.AgentID{"b-1", "b-2", "b-3", "b-4", "b-5"}
	for _, a := range agents {
		if _, err := svc.ClientFor(node).Register(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	gen := node.Durable().Generation()
	pcfg := cfg
	pcfg.CallTimeout = 10 * time.Millisecond
	p := &Persister{node: node, cfg: pcfg}
	if n, err := p.WriteFullSnapshot(); err == nil {
		t.Errorf("full snapshot past a busy leaf = %d sections, no error", n)
	}
	if p, err := StartPersister(node, pcfg, time.Hour); err != nil || p.Stop() == nil {
		t.Errorf("Stop's final full snapshot past a busy leaf reported no error (%v)", err)
	}
	if got := node.Durable().Generation(); got != gen {
		t.Errorf("generation %d after the failed snapshot, want %d: the WAL rotated", got, gen)
	}
	node.Crash()

	node2, _ := durableNode(t, net, "node-0", dir)
	report, err := RecoverNode(node2, svc.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(report.IAgents, []ids.AgentID{"iagent-1"}) || report.Entries != len(agents) {
		t.Fatalf("recovered %v (HAgents %v) with %d entries, want iagent-1 with %d", report.IAgents, report.HAgents, report.Entries, len(agents))
	}
	client := NewClient(NodeCaller{N: node2}, svc.Config())
	for _, a := range agents {
		if got, err := client.Locate(ctx, a); err != nil || got != "node-0" {
			t.Errorf("%s locates at %q (%v), want node-0", a, got, err)
		}
	}
}

// heldAgent is an application agent whose requests wait for release.
type heldAgent struct{ entered, release chan struct{} }

func (a heldAgent) HandleRequest(*platform.Context, string, []byte) (any, error) {
	a.entered <- struct{}{}
	<-a.release
	return nil, nil
}

// TestFullSnapshotPassesBusyAppAgent: an agent with no section is not
// visited, so an application agent held busy past the persister's deadline
// next to a leaf neither fails nor delays the full snapshot.
func TestFullSnapshotPassesBusyAppAgent(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	node, _ := durableNode(t, net, "node-0", t.TempDir())
	cfg := crossVersionConfig()
	cfg.CallTimeout = 10 * time.Millisecond
	if _, err := Deploy(context.Background(), cfg, []*platform.Node{node}); err != nil {
		t.Fatal(err)
	}
	app := heldAgent{entered: make(chan struct{}), release: make(chan struct{})}
	if err := node.Launch("app-1", app); err != nil {
		t.Fatal(err)
	}
	call := node.Go(testCtx(t), "node-0", "app-1", "app.hold", nil, nil)
	<-app.entered
	gen := node.Durable().Generation()
	n, err := (&Persister{node: node, cfg: cfg}).WriteFullSnapshot()
	close(app.release)
	if err != nil || n != 2 {
		t.Fatalf("full snapshot beside a busy application agent: %d sections, %v; want the HAgent's and the leaf's", n, err)
	}
	if got := node.Durable().Generation(); got != gen+1 {
		t.Errorf("generation %d after the full snapshot, want %d", got, gen+1)
	}
	if err := call.Wait(); err != nil {
		t.Fatal(err)
	}
}
