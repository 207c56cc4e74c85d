package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
)

// possible is what the writers' model allows a locate of one agent to answer:
// every node an unacknowledged report may have left it at, besides the last
// acknowledged one, with "" for "not registered".
type possible []platform.NodeID

func (p possible) has(n platform.NodeID) bool { return slices.Contains(p, n) }

// after folds one report into the model: an acknowledged report settles the
// answer, one that failed adds its outcome to what may have happened.
func (p possible) after(n platform.NodeID, err error) possible {
	if err == nil {
		return possible{n}
	}
	if p.has(n) {
		return p
	}
	return append(p, n)
}

// TestPooledCallsSurviveConcurrentOps: eight goroutines share one client and
// mix every single-agent operation with both fan-outs, while node-2, which
// holds a leaf, is cut off part of the time. Calls to it expire, and the leaf
// on the client's own node, which charges a service time, builds its callers'
// Done channels, so both kinds of deadline come and go in the pool. Each
// goroutine writes its own agents, and every answer is checked against its
// model: a deadline, a request, a response or a reply buffer that two calls
// came to share would show as a wrong answer or a failed call to a leaf
// nothing cuts off. The cluster then proves it released every call.
func TestPooledCallsSurviveConcurrentOps(t *testing.T) {
	const workers, perWorker = 8, 8
	cfg := quietConfig()
	cfg.IAgentServiceTime = 100 * time.Microsecond
	c := newTestCluster(t, cfg, 3)
	ctx := testCtx(t)

	ccfg := cfg
	ccfg.CallTimeout = 30 * time.Millisecond
	ccfg.RetryBackoffBase = time.Millisecond
	ccfg.RetryBackoffMax = 2 * time.Millisecond
	reg := metrics.New()
	client := NewClient(metricCaller{Caller: NodeCaller{N: c.nodes[0]}, reg: reg}, ccfg)

	tags := make([]string, workers)
	agents := make([][]ids.AgentID, workers)
	homes := make(map[ids.AgentID]platform.NodeID)
	for w := range agents {
		tags[w] = fmt.Sprintf("pool-%d", w)
		for k := range perWorker {
			a := ids.AgentID(fmt.Sprintf("pooled-%d-%d", w, k))
			if _, err := client.RegisterWithCapabilities(ctx, a, []string{tags[w]}); err != nil {
				t.Fatal(err)
			}
			agents[w] = append(agents[w], a)
			homes[a] = "node-0"
		}
	}
	leafNodes := func(st *State) map[platform.NodeID]int {
		on := make(map[platform.NodeID]int)
		for _, node := range st.Locations {
			on[node]++
		}
		return on
	}
	st := hashState(t, c, ctx)
	for on := leafNodes(st); on["node-1"] == 0 || on["node-2"] == 0; on = leafNodes(st) {
		if len(st.Locations) >= 8 {
			t.Fatalf("%d leaves and still none on node-1 or node-2: %v", len(st.Locations), st.Locations)
		}
		forceSplit(t, c, ctx, "iagent-1", homes) // new leaves go round the nodes
		st = hashState(t, c, ctx)
	}
	// cutOff is whether an agent's leaf is on node-2; every other operation
	// must succeed, partition or not.
	cutOff := make(map[ids.AgentID]bool)
	perNode := make(map[platform.NodeID]int)
	for a := range homes {
		_, node, err := st.OwnerOf(a)
		if err != nil {
			t.Fatal(err)
		}
		cutOff[a] = node == "node-2"
		perNode[node]++
	}
	if perNode["node-0"] == 0 || perNode["node-2"] == 0 {
		t.Fatalf("agents per leaf node %v: the test wants some on the client's node and some cut off", perNode)
	}

	stop, healed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(healed)
		for cut := true; ; cut = !cut {
			if cut {
				c.net.Partition("node-0", "node-2")
			} else {
				c.net.Heal("node-0", "node-2")
			}
			select {
			case <-stop:
				c.net.Heal("node-0", "node-2")
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}()

	nodes := []platform.NodeID{"node-0", "node-1", "node-2"}
	end := time.Now().Add(800 * time.Millisecond)
	var ops, excused atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mine := agents[w]
			model := make(map[ids.AgentID]possible, len(mine))
			assigns := make(map[ids.AgentID]Assignment, len(mine))
			for _, a := range mine {
				model[a] = possible{"node-0"}
			}
			// failed reports a failure that nothing excuses.
			failed := func(op string, a ids.AgentID, err error) {
				switch {
				case err == nil:
				case cutOff[a]:
					excused.Add(1)
				default:
					t.Errorf("%s %s, on a leaf nothing cuts off: %v", op, a, err)
				}
			}
			for ; time.Now().Before(end); ops.Add(1) {
				a := mine[rng.Intn(len(mine))]
				registered := !model[a].has("")
				switch op := rng.Intn(6); {
				case op <= 1:
					node, err := client.Locate(ctx, a)
					switch {
					case err == nil && !model[a].has(node):
						t.Errorf("locate %s = %s, model allows %v", a, node, model[a])
					case errors.Is(err, ErrNotRegistered) && !model[a].has(""):
						t.Errorf("locate %s: not registered, model allows %v", a, model[a])
					case err != nil && !errors.Is(err, ErrNotRegistered):
						failed("locate", a, err)
					}
				case op == 2 && registered:
					to := nodes[rng.Intn(len(nodes))]
					assign, err := client.MoveNotifyTo(ctx, a, to, assigns[a])
					model[a] = model[a].after(to, err)
					assigns[a] = assign
					failed("move", a, err)
				case op == 3 && registered:
					err := client.Deregister(ctx, a, assigns[a])
					model[a] = model[a].after("", err)
					failed("deregister", a, err)
					assign, err := client.RegisterWithCapabilities(ctx, a, []string{tags[w]})
					model[a] = model[a].after("node-0", err)
					assigns[a] = assign
					failed("register", a, err)
				case op == 4:
					got, err := client.LocateBatch(ctx, mine)
					for _, b := range mine {
						node, ok := got[b]
						switch {
						case ok && !model[b].has(node):
							t.Errorf("batch located %s at %s, model allows %v", b, node, model[b])
						case !ok && !model[b].has("") && (err == nil || !cutOff[b]):
							t.Errorf("batch missed registered %s (err %v)", b, err)
						}
					}
				case op == 5:
					matches, err := client.Discover(ctx, Query{Caps: []string{tags[w]}})
					seen := make(map[ids.AgentID]bool, len(matches))
					for _, m := range matches {
						seen[m.Agent] = true
						if want, ours := model[m.Agent]; !ours || !want.has(m.Node) {
							t.Errorf("discover %s found %s at %s, model allows %v", tags[w], m.Agent, m.Node, want)
						}
					}
					for _, b := range mine {
						if !seen[b] && !model[b].has("") && (err == nil || !cutOff[b]) {
							t.Errorf("discover %s missed registered %s (err %v)", tags[w], b, err)
						}
					}
				}
			}
			// Healed, every agent whose last report was acknowledged is
			// where it was reported.
			<-healed
			for _, a := range mine {
				if want := model[a]; len(want) == 1 && want[0] != "" {
					if node, err := client.Locate(ctx, a); err != nil || node != want[0] {
						t.Errorf("after the partition: locate %s = %s, %v; want %s", a, node, err, want[0])
					}
				}
			}
		}()
	}
	time.Sleep(time.Until(end))
	close(stop)
	wg.Wait()
	var retries uint64
	for _, op := range []string{"locate", "update", "register", "deregister", "discover"} {
		retries += reg.Snapshot().Counter("agentloc_core_client_retries_total", "op", op)
	}
	t.Logf("%d operations, %d retried rounds, %d single-agent operations failed across the partition",
		ops.Load(), retries, excused.Load())
	if retries == 0 {
		t.Error("no call met the partition")
	}
}
