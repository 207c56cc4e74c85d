package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// These tests pin the sibling checkpoint's behaviour across a rehash: every
// leaf ends up on the published hash version, whether the rehash touched it or
// not, and only the leaves it did touch send their tables again.

func ckLag(reg *metrics.Registry, ia ids.AgentID) int64 {
	return reg.Snapshot().Gauge("agentloc_checkpoint_lag_entries", "iagent", string(ia))
}

func ckSent(reg *metrics.Registry, ia ids.AgentID, kind string) uint64 {
	return reg.Snapshot().Counter("agentloc_checkpoint_entries_sent_total", "iagent", string(ia), "kind", kind)
}

// TestStrandedCousinCheckpointConverges: two splits of iagent-1 leave
// iagent-2 — whose buddy iagent-1 is — untouched by the second one, so nobody
// pushes it the new hash version. Its checkpoint must keep flowing all the
// same (it did not: every push was refused for its version, and the copy a
// takeover restores froze at the split), and a takeover of iagent-2 must
// restore what it held last, not what it held then.
func TestStrandedCousinCheckpointConverges(t *testing.T) {
	cfg := failoverConfig()
	cfg.HeartbeatInterval = 100 * time.Millisecond // "within 4 heartbeats" must mean something on a busy machine
	cfg.CheckInterval = 20 * time.Millisecond
	c, reg := newMeteredCluster(t, cfg, 3)
	ctx := testCtx(t)
	const cousin, buddy = ids.AgentID("iagent-2"), ids.AgentID("iagent-1")

	// The series exist, at zero, before anything is pushed.
	if _, err := c.service.ClientFor(c.nodes[0]).Register(ctx, "first"); err != nil {
		t.Fatal(err)
	}
	if n := len(reg.Snapshot().Families); n == 0 || ckSent(reg, buddy, "full")+ckSent(reg, buddy, "delta") != 0 {
		t.Fatalf("agentloc_checkpoint_entries_sent_total is not pre-registered at zero")
	}

	homes := registerMany(t, c, ctx, 48)
	forceSplit(t, c, ctx, buddy, homes)
	forceSplit(t, c, ctx, buddy, homes)
	st := hashState(t, c, ctx)
	if got := checkpointBuddy(st, cousin); got != buddy || st.Tree.NumLeaves() != 3 {
		t.Fatalf("tree %s: %s checkpoints to %s, want a three-leaf tree with it checkpointing to %s", st.Tree.Describe(), cousin, got, buddy)
	}
	time.Sleep(4 * cfg.HeartbeatInterval) // the first full pushes, and the cousin's refresh

	// Move everything the cousin owns to the node after its home.
	next := map[platform.NodeID]*platform.Node{}
	for i, n := range c.nodes {
		next[n.ID()] = c.nodes[(i+1)%len(c.nodes)]
	}
	fullBefore := ckSent(reg, cousin, "full")
	moved := make(map[ids.AgentID]platform.NodeID)
	for agent, home := range homes {
		if owner, _, _ := st.OwnerOf(agent); owner != cousin {
			continue
		}
		dest := next[home]
		if _, err := c.service.ClientFor(dest).MoveNotify(ctx, agent, Assignment{}); err != nil {
			t.Fatalf("move %s: %v", agent, err)
		}
		moved[agent] = dest.ID()
	}
	if len(moved) < 4 {
		t.Fatalf("%s owns %d agents; the test would be vacuous", cousin, len(moved))
	}

	time.Sleep(4 * cfg.HeartbeatInterval)
	for i := 0; i < 8; i++ {
		if lag := ckLag(reg, cousin); lag != 0 {
			t.Fatalf("%s is %d entries behind its buddy's copy %d heartbeats after the moves, want 0", cousin, lag, 4+i/2)
		}
		time.Sleep(cfg.HeartbeatInterval / 2)
	}
	if got := ckSent(reg, cousin, "delta"); got < uint64(len(moved)) {
		t.Errorf("%s shipped %d delta entries for %d moves", cousin, got, len(moved))
	}
	if got := ckSent(reg, cousin, "full"); got != fullBefore {
		t.Errorf("%s shipped %d more full-push entries after the tree had settled", cousin, got-fullBefore)
	}

	// The cousin dies (alone: its buddy shares the node). The takeover is a
	// complex merge — iagent-1 and iagent-3 absorb — and only the buddy holds
	// the copy, so the slice it absorbs is restored and the other heals at the
	// agents' next moves; neither may answer a pre-move home.
	merged, _, err := st.Tree.Merge(string(cousin))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[0].Kill(cousin); err != nil {
		t.Fatal(err)
	}
	eventually(t, 20*time.Second, func(ctx context.Context) error {
		stats, err := c.service.Stats(ctx)
		if err != nil {
			return err
		}
		if stats.Failovers != 1 {
			return fmt.Errorf("failovers = %d, want 1", stats.Failovers)
		}
		return nil
	})
	client := c.service.ClientFor(c.nodes[2])
	restored := 0
	for agent, home := range moved {
		agent, home := agent, home
		absorber, err := merged.LookupHash(agent.Hash64())
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, 15*time.Second, func(ctx context.Context) error {
			got, err := client.Locate(ctx, agent)
			if errors.Is(err, ErrNotRegistered) && ids.AgentID(absorber) != buddy {
				return nil
			}
			if err != nil {
				return err
			}
			if got != home {
				return fmt.Errorf("locate %s = %s, want its post-move home %s", agent, got, home)
			}
			return nil
		})
		if ids.AgentID(absorber) == buddy {
			restored++
		}
	}
	if restored == 0 {
		t.Fatalf("none of the %d moved agents fell to %s; the restore path went unexercised", len(moved), buddy)
	}
}

// TestRehashResendsOnlyTouchedLeaves scripts a split of iagent-1 and the merge
// that undoes it on a fake clock (TestCheckpointVersionGuardNoResurrection's
// harness): a leaf whose label and buddy the rehash left alone sends no full
// push — its buddy carried the copy across the version bump — every other
// leaf sends one (and a refused one, at most), and the absorber of the cooperative merge holds no
// copy of the leaf that retired.
func TestRehashResendsOnlyTouchedLeaves(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	reg := metrics.New()
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, 3)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net, Clock: fake, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	cfg := failoverConfig()
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{nodes: nodes, service: svc}
	ctx := testCtx(t)
	cfg = svc.Config()
	step := func() {
		for i := 0; i < 10; i++ {
			fake.Advance(cfg.HeartbeatInterval)
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The first leaf is swapped for one the test can look into.
	initial := hashState(t, c, ctx)
	if err := nodes[0].Kill("iagent-1"); err != nil {
		t.Fatal(err)
	}
	leaf1 := &IAgentBehavior{Cfg: cfg, StateSnapshot: initial.DTO()}
	if err := nodes[0].Launch("iagent-1", leaf1); err != nil {
		t.Fatal(err)
	}

	homes := registerMany(t, c, ctx, 64)
	forceSplit(t, c, ctx, "iagent-1", homes)
	forceSplit(t, c, ctx, "iagent-1", homes)
	step()

	// rehash runs op and checks who sent what: per leaf of the new tree, its
	// whole table once if the rehash changed its label or its buddy, nothing
	// otherwise.
	rehash := func(name string, op func()) {
		t.Helper()
		old := hashState(t, c, ctx)
		before := make(map[ids.AgentID]uint64)
		for ia := range old.Locations {
			before[ia] = ckSent(reg, ia, "full")
		}
		op()
		step()
		st := hashState(t, c, ctx)
		stranded := false
		for ia := range st.Locations {
			owned := uint64(0)
			for agent := range homes {
				if owner, _, _ := st.OwnerOf(agent); owner == ia {
					owned++
				}
			}
			touched := !sameLeaf(old.Tree, st.Tree, string(ia)) || checkpointBuddy(old, ia) != checkpointBuddy(st, ia)
			want, refused := before[ia], uint64(0)
			if touched {
				// Its table once — and once more if its buddy, an untouched
				// leaf, had yet to pull the new version when the push arrived:
				// the counter counts what is sent, refused or not.
				want, refused = want+owned, owned
			} else if !sameLeaf(old.Tree, st.Tree, string(checkpointBuddy(st, ia))) {
				stranded = true
			}
			if got := ckSent(reg, ia, "full"); got != want && got != want+refused {
				t.Errorf("%s: %s (touched: %v, owns %d) has shipped %d full-push entries, want %d", name, ia, touched, owned, got, want)
			}
			if lag := ckLag(reg, ia); lag != 0 {
				t.Errorf("%s: %s is %d entries behind its buddy's copy", name, ia, lag)
			}
		}
		if !stranded {
			t.Fatalf("%s: no untouched leaf has a touched buddy in %s", name, st.Tree.Describe())
		}
	}
	rehash("split", func() { forceSplit(t, c, ctx, "iagent-1", homes) })

	leaf1.mu.Lock()
	_, held := leaf1.checkpoints["iagent-4"]
	leaf1.mu.Unlock()
	if !held {
		t.Fatalf("iagent-1 holds no copy of the leaf split off it; the merge below would prove nothing")
	}
	rehash("merge", func() {
		var resp RehashResp
		req := RequestMergeReq{IAgent: "iagent-4", HashVersion: hashState(t, c, ctx).Version()}
		if err := nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestMerge, req, &resp); err != nil || resp.Status != StatusOK {
			t.Fatalf("merge: %v, %v", resp.Status, err)
		}
	})
	leaf1.mu.Lock()
	defer leaf1.mu.Unlock()
	if _, held := leaf1.checkpoints["iagent-4"]; held {
		t.Error("iagent-1 still holds a copy of iagent-4, which the merge retired")
	}
	for src, ck := range leaf1.checkpoints {
		if ck.HashVersion != leaf1.state.Load().Version() {
			t.Errorf("held copy of %s is stamped v%d, the leaf is at v%d", src, ck.HashVersion, leaf1.state.Load().Version())
		}
	}
}

// TestCheckpointStreamRacingWrites is TestCheckpointUpdateRacingTheSnapshot
// for a full push of several chunks: arrivals, moves and departures that land
// while the stream is cut — before, between and behind its chunks — are in a
// chunk or in the first delta after it, and a departure is never put back.
func TestCheckpointStreamRacingWrites(t *testing.T) {
	leaf, buddy, ctx := bareLeaf(t, failoverConfig(), true)
	agents := ownedIDs(t, leaf, "a", 3*ckChunkEntries)
	update(t, leaf, ctx, agents[:2*ckChunkEntries+100], "node-1")
	done := make(chan struct{})
	go func() { // the mailbox's part
		defer close(done)
		for i := 0; i+8 <= len(agents); i += 8 {
			update(t, leaf, ctx, agents[i:i+8], "node-2")
			if i%64 == 0 {
				serve(t, leaf, ctx, KindDeregister, DeregisterReq{Agent: agents[i/2]})
			}
		}
	}()
	for racing := true; racing; { // the Run loop's part
		select {
		case <-done:
			racing = false
		default:
			leaf.mu.Lock()
			leaf.armFullCheckpoint()
			leaf.mu.Unlock()
		}
		leaf.pushCheckpoint(ctx)
	}
	leaf.pushCheckpoint(ctx)
	held, table := heldCopy(buddy).Entries, leaf.leaf.table.Snapshot()
	if len(held) != len(table) {
		t.Errorf("the buddy holds %d entries, the table %d", len(held), len(table))
	}
	for a, n := range table {
		if held[a] != n {
			t.Fatalf("the buddy has %s at %q, the table at %q: a write fell between chunk and delta", a, held[a], n)
		}
	}
}

// TestFullPushWaitsForBuddyVersion: a buddy that has yet to pull the sender's
// hash version refuses a full push on its empty first chunk, so no record
// ships while it lags, however many heartbeats pass; once it holds the
// version, the table ships once.
func TestFullPushWaitsForBuddyVersion(t *testing.T) {
	leaf, buddy, ctx := bareLeaf(t, failoverConfig(), true)
	update(t, leaf, ctx, ownedIDs(t, leaf, "a", 64), "node-1")
	sent := metrics.New().Counter("full-push records")
	leaf.metCkSentFull = sent
	st, err := FromDTO(leaf.StateSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	ahead := &State{Ver: st.Ver + 1, Tree: st.Tree, Locations: st.Locations}
	leaf.mu.Lock()
	leaf.installState("iagent-1", ahead, "")
	leaf.mu.Unlock()
	for range 3 {
		leaf.pushCheckpoint(ctx)
	}
	if n := sent.Value(); n != 0 {
		t.Errorf("three pushes to a lagging buddy shipped %d records, want none", n)
	}
	buddy.mu.Lock()
	buddy.installState("iagent-2", ahead, "")
	buddy.mu.Unlock()
	leaf.pushCheckpoint(ctx)
	if n, held := sent.Value(), buddy.checkpoints["iagent-1"].Log.Len(); n != 64 || held != 64 {
		t.Errorf("the push to a caught-up buddy shipped %d records and left it %d, want 64 and 64", n, held)
	}
}
