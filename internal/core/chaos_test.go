package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// TestChaosChurn is a torture test: for several seconds, random agents
// register, move, deregister and are located from random vantage points,
// while aggressive thresholds force continuous splits and merges, and the
// network intermittently partitions and heals. Throughout, the invariant checked is the service's core contract:
// a locate that succeeds returns the agent's last acknowledged node, and
// every registered agent becomes locatable again once the network is whole.
// A run that splits or merges nothing has tested no rehash, and fails.
func TestChaosChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos churn in -short mode")
	}

	net := transport.NewNetwork(transport.NetworkConfig{Seed: 42})
	t.Cleanup(func() { net.Close() })
	const numNodes = 4
	nodes := make([]*platform.Node, numNodes)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}

	cfg := DefaultConfig()
	cfg.TMax = 40
	cfg.TMin = 4
	cfg.RateWindow = 400 * time.Millisecond
	cfg.CheckInterval = 40 * time.Millisecond
	cfg.MergeGrace = 300 * time.Millisecond
	cfg.IAgentServiceTime = 200 * time.Microsecond
	cfg.CallTimeout = 3 * time.Second
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Ground truth: last acknowledged node per live agent.
	truth := make(map[ids.AgentID]chaosAgentState)
	r := rand.New(rand.NewSource(7))
	clients := make([]*Client, numNodes)
	for i, n := range nodes {
		clients[i] = svc.ClientFor(n)
	}
	nextID := 0

	// opCtx bounds one chaos operation; partitions make timeouts normal.
	op := func(f func(ctx context.Context) error) error {
		octx, ocancel := context.WithTimeout(ctx, 1500*time.Millisecond)
		defer ocancel()
		return f(octx)
	}

	partitioned := false
	deadline := time.Now().Add(8 * time.Second)
	ops, failures := 0, 0
	for time.Now().Before(deadline) {
		ops++
		switch k := r.Intn(100); {
		case k < 25: // register a new agent
			id := ids.AgentID(fmt.Sprintf("chaos-%d", nextID))
			nextID++
			ni := r.Intn(numNodes)
			err := op(func(octx context.Context) error {
				assign, err := clients[ni].Register(octx, id)
				if err == nil {
					truth[id] = chaosAgentState{node: nodes[ni].ID(), assign: assign}
				}
				return err
			})
			if err != nil {
				// The registration may or may not have landed.
				truth[id] = chaosAgentState{node: nodes[ni].ID(), mayNotExist: true}
				failures++
			}
		case k < 50: // move a random agent
			id, ok := randomAgent(r, truth)
			if !ok {
				continue
			}
			ni := r.Intn(numNodes)
			err := op(func(octx context.Context) error {
				assign, err := clients[ni].MoveNotify(octx, id, truth[id].assign)
				if err == nil {
					truth[id] = chaosAgentState{node: nodes[ni].ID(), assign: assign}
				}
				return err
			})
			if err != nil {
				// The update may or may not have landed: both the old and
				// the attempted node are now acceptable answers.
				st := truth[id]
				st.alt = nodes[ni].ID()
				truth[id] = st
				failures++
			}
		case k < 58: // deregister
			id, ok := randomAgent(r, truth)
			if !ok {
				continue
			}
			err := op(func(octx context.Context) error {
				err := clients[r.Intn(numNodes)].Deregister(octx, id, truth[id].assign)
				if err == nil {
					delete(truth, id)
				}
				return err
			})
			if err != nil {
				// The removal may or may not have landed.
				st := truth[id]
				st.mayBeGone = true
				truth[id] = st
				failures++
			}
		case k < 92: // locate and check against ground truth
			id, ok := randomAgent(r, truth)
			if !ok {
				continue
			}
			st := truth[id]
			err := op(func(octx context.Context) error {
				got, err := clients[r.Intn(numNodes)].Locate(octx, id)
				if errors.Is(err, ErrNotRegistered) {
					if !st.mayNotExist && !st.mayBeGone {
						t.Fatalf("locate %s: not registered, but ground truth says it lives at %s", id, st.node)
					}
					return nil
				}
				if err != nil {
					return err
				}
				if got != st.node && (st.alt == "" || got != st.alt) {
					t.Fatalf("locate %s = %s, ground truth %s (alt %q)", id, got, st.node, st.alt)
				}
				return nil
			})
			if err != nil {
				failures++
			}
		case k < 96 && !partitioned: // inject a partition
			net.Partition(nodes[r.Intn(numNodes)].ID().Addr(), nodes[r.Intn(numNodes)].ID().Addr())
			partitioned = true
		default: // heal everything
			net.HealAll()
			partitioned = false
		}
	}
	net.HealAll()

	if len(truth) == 0 {
		t.Fatal("chaos left no live agents to verify")
	}
	// Failures under partitions are expected, but the run must not be all
	// noise.
	if failures > ops/2 {
		t.Fatalf("too chaotic to be meaningful: %d/%d operations failed", failures, ops)
	}

	// Convergence: with the network whole, every *unambiguous* live agent
	// must be locatable at its ground-truth node (retrying through
	// residual rehashing). Agents whose last operation timed out have
	// ambiguous truth and are excluded.
	verified := 0
	for id, st := range truth {
		if st.mayNotExist || st.mayBeGone || st.alt != "" {
			continue
		}
		var got platform.NodeID
		var lastErr error
		ok := false
		for attempt := 0; attempt < 20 && !ok; attempt++ {
			octx, ocancel := context.WithTimeout(ctx, 2*time.Second)
			got, lastErr = clients[0].Locate(octx, id)
			ocancel()
			ok = lastErr == nil && got == st.node
			if !ok {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if !ok {
			stats, _ := svc.Stats(ctx)
			t.Fatalf("after healing, locate %s = %s (%v), ground truth %s; stats %+v",
				id, got, lastErr, st.node, stats)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("no unambiguous agents survived to verify convergence")
	}

	stats, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos survived: %d ops (%d failed under partitions), %d live agents, %d splits, %d merges, %d IAgents",
		ops, failures, len(truth), stats.Splits, stats.Merges, stats.NumIAgents)
	if stats.Splits < 1 || stats.Merges < 1 {
		t.Errorf("the churn rehashed too little to test: %d splits, %d merges (want at least one of each)", stats.Splits, stats.Merges)
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatal("chaos run exceeded its budget")
	}
}

// TestChaosTCPFaults tortures the mechanism over real TCP links while the
// fault injector resets connections and stalls writes at random. The
// contract under test is the PR's deadline work end to end: no operation
// outlives its per-op deadline by more than the transport's write timeout,
// and once the faults stop, every acknowledged registration is locatable
// again.
func TestChaosTCPFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP fault chaos in -short mode")
	}

	faults := []*transport.Faults{transport.NewFaults(), transport.NewFaults()}
	c, links := newTCPCluster(t, quietConfig(), 2, func(i int, tc *transport.TCPConfig) {
		tc.Faults = faults[i]
		tc.WriteTimeout = 500 * time.Millisecond
		tc.RedialBackoff = 5 * time.Millisecond
	})
	clients := []*Client{c.service.ClientFor(c.nodes[0]), c.service.ClientFor(c.nodes[1])}

	r := rand.New(rand.NewSource(11))
	registered := make(map[ids.AgentID]platform.NodeID) // acknowledged only
	ops, failures := 0, 0
	nextID := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ops++
		octx, ocancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
		opStart := time.Now()
		switch k := r.Intn(100); {
		case k < 30: // register on a random node
			ni := r.Intn(len(clients))
			id := ids.AgentID(fmt.Sprintf("tcp-chaos-%d", nextID))
			nextID++
			if _, err := clients[ni].Register(octx, id); err == nil {
				registered[id] = c.nodes[ni].ID()
			} else {
				failures++
			}
		case k < 80: // locate from a random vantage point
			id, ok := randomNode(r, registered)
			if !ok {
				break
			}
			got, err := clients[r.Intn(len(clients))].Locate(octx, id)
			if err != nil {
				failures++
			} else if got != registered[id] {
				t.Fatalf("locate %s = %s, registered at %s", id, got, registered[id])
			}
		case k < 90: // reset every live connection
			faults[r.Intn(len(faults))].ResetAll()
		default: // briefly stall a link's writes, then release
			f := faults[r.Intn(len(faults))]
			f.StallWrites(true)
			time.Sleep(time.Duration(r.Intn(100)) * time.Millisecond)
			f.StallWrites(false)
		}
		ocancel()
		// Deadline discipline: the op may fail, but it must not hang past
		// its context plus one transport write timeout of slack.
		if took := time.Since(opStart); took > 3*time.Second {
			t.Fatalf("operation %d took %v under faults, deadlines are leaking", ops, took)
		}
	}

	// Quiesce and converge: every acknowledged registration locatable.
	for _, f := range faults {
		f.StallWrites(false)
	}
	if len(registered) == 0 {
		t.Fatal("chaos acknowledged no registrations to verify")
	}
	if failures > ops*3/4 {
		t.Fatalf("too chaotic to be meaningful: %d/%d operations failed", failures, ops)
	}
	for id, want := range registered {
		id, want := id, want
		eventually(t, 20*time.Second, func(ctx context.Context) error {
			got, err := clients[0].Locate(ctx, id)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("locate %s = %s, want %s", id, got, want)
			}
			return nil
		})
	}
	t.Logf("tcp fault chaos survived: %d ops (%d failed under faults), %d registrations verified over %d links",
		ops, failures, len(registered), len(links))
}

// randomNode picks a random key from the acknowledged-registration map.
func randomNode(r *rand.Rand, m map[ids.AgentID]platform.NodeID) (ids.AgentID, bool) {
	if len(m) == 0 {
		return "", false
	}
	k := r.Intn(len(m))
	for id := range m {
		if k == 0 {
			return id, true
		}
		k--
	}
	return "", false
}

// chaosAgentState is the chaos test's ground truth for one agent. When an
// operation times out under a partition its effect is unknown, so the state
// records the ambiguity instead of guessing.
type chaosAgentState struct {
	node   platform.NodeID
	assign Assignment
	// alt is a second acceptable location (a move whose ack was lost).
	alt platform.NodeID
	// mayNotExist marks a registration whose ack was lost.
	mayNotExist bool
	// mayBeGone marks a deregistration whose ack was lost.
	mayBeGone bool
}

// randomAgent picks a random live agent id.
func randomAgent(r *rand.Rand, truth map[ids.AgentID]chaosAgentState) (ids.AgentID, bool) {
	if len(truth) == 0 {
		return "", false
	}
	k := r.Intn(len(truth))
	for id := range truth {
		if k == 0 {
			return id, true
		}
		k--
	}
	return "", false
}
