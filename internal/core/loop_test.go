package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// scriptCaller is a Caller that plays the local LHAgent itself and answers
// every IAgent request from a script, recording what the client asked: the
// MinVersion of each refresh and the kind of each IAgent request.
type scriptCaller struct {
	reg *metrics.Registry
	rec *trace.Recorder
	// answer gives the n-th IAgent request's (from 0) status, hash version
	// and call error; version is the LHAgent's version at the time.
	answer func(n int, version uint64) (Status, uint64, error)
	// owners is what a whois-batch names, one owner per target.
	owners []uint32

	mu      sync.Mutex
	version uint64 // the LHAgent's hash version; a refresh raises it
	refresh []uint64
	calls   []string
}

func (s *scriptCaller) LocalNode() platform.NodeID { return "node-0" }
func (s *scriptCaller) Metrics() *metrics.Registry { return s.reg }
func (s *scriptCaller) Tracer() *trace.Recorder    { return s.rec }

func (s *scriptCaller) Go(ctx context.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) transport.Pending {
	return transport.Settled(s.call(kind, req, resp))
}

func (s *scriptCaller) call(kind string, req, resp any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch kind {
	case KindWhois:
		*resp.(*WhoisResp) = WhoisResp{IAgent: "iagent-1", Node: "node-1", HashVersion: s.version}
		return nil
	case KindWhoisBatch:
		*resp.(*WhoisBatchResp) = WhoisBatchResp{HashVersion: s.version, Leaves: []LeafRef{{IAgent: "iagent-1", Node: "node-1"}}, Owner: s.owners}
		return nil
	case KindRefresh:
		minVersion := req.(*RefreshReq).MinVersion
		s.refresh = append(s.refresh, minVersion)
		s.version = max(s.version, minVersion)
		*resp.(*RefreshResp) = RefreshResp{HashVersion: s.version}
		return nil
	}
	n := len(s.calls)
	s.calls = append(s.calls, kind)
	if s.answer == nil {
		return fmt.Errorf("script: no answer for %s", kind)
	}
	status, version, err := s.answer(n, s.version)
	if err != nil {
		return err
	}
	ack := Ack{Status: status, HashVersion: version}
	switch r := resp.(type) {
	case *LocateResp:
		*r = LocateResp{Status: status, Node: "node-2", HashVersion: version}
	case *Ack:
		*r = ack
	case *CheckInResp:
		*r = CheckInResp{Ack: ack}
	case *UpdateBatchResp:
		*r = UpdateBatchResp{Acks: []Ack{ack}}
	default:
		return fmt.Errorf("script: unexpected reply %T to %s", resp, kind)
	}
	return nil
}

// stepClock is a clock.Fake whose timers fire the moment they are armed, so
// a retry's backoff costs no wall time. onWait, when set, runs instead, and
// the timer never fires.
type stepClock struct {
	*clock.Fake
	onWait func()
}

func (c stepClock) After(d time.Duration) <-chan time.Time {
	ch := c.Fake.After(d)
	if c.onWait != nil {
		c.onWait()
	} else {
		c.Fake.Advance(d)
	}
	return ch
}

// TestClientLoopConformance runs every single-agent operation through the
// same scripts and holds each to the same §4.3 loop: the refreshes it asks
// for, the IAgent requests it makes, the retries it counts, the latency it
// observes, the child spans it records with their attempt annotation, and
// the stale cache entry it drops.
func TestClientLoopConformance(t *testing.T) {
	const agent, v = ids.AgentID("conformer"), uint64(5)
	ops := []struct {
		name, kind, child, op string
		batched               bool
		do                    func(context.Context, *Client) error
	}{
		{"Locate", KindLocate, "iagent.locate", "locate", false, func(ctx context.Context, c *Client) error {
			_, err := c.Locate(ctx, agent)
			return err
		}},
		{"Register", KindRegister, "iagent.register", "register", false, func(ctx context.Context, c *Client) error {
			_, err := c.Register(ctx, agent)
			return err
		}},
		{"MoveNotify", KindUpdate, "iagent.update", "update", false, func(ctx context.Context, c *Client) error {
			_, err := c.MoveNotify(ctx, agent, Assignment{})
			return err
		}},
		{"MoveNotifyBatched", KindUpdateBatch, "batch.wait", "update", true, func(ctx context.Context, c *Client) error {
			_, err := c.MoveNotify(ctx, agent, Assignment{})
			return err
		}},
		{"Deregister", KindDeregister, "iagent.deregister", "deregister", false, func(ctx context.Context, c *Client) error {
			return c.Deregister(ctx, agent, Assignment{})
		}},
		{"Deposit", KindDeposit, "iagent.deposit", "deposit", false, func(ctx context.Context, c *Client) error {
			return c.Deposit(ctx, "sender", agent, "note", nil)
		}},
		{"CheckIn", KindCheckIn, "iagent.checkin", "checkin", false, func(ctx context.Context, c *Client) error {
			_, _, err := c.CheckIn(ctx, agent, Assignment{})
			return err
		}},
	}
	stale := func(n int, version uint64) (Status, uint64, error) { return StatusNotResponsible, version, nil }
	firstThenOK := func(first func(uint64) (Status, uint64, error)) func(int, uint64) (Status, uint64, error) {
		return func(n int, version uint64) (Status, uint64, error) {
			if n == 0 {
				return first(version)
			}
			return StatusOK, version, nil
		}
	}
	scripts := []struct {
		name        string
		answer      func(int, uint64) (Status, uint64, error)
		cancel      bool // cancel the operation at its first backoff
		wantErr     error
		wantRefresh []uint64
		wantCalls   int
		wantRetries uint64
	}{
		{"NotResponsibleThenOK", firstThenOK(func(version uint64) (Status, uint64, error) {
			return StatusNotResponsible, version + 3, nil
		}), false, nil, []uint64{v + 3}, 2, 1},
		{"AgentNotFoundThenOK", firstThenOK(func(uint64) (Status, uint64, error) {
			return 0, 0, fmt.Errorf("%w: iagent-1 at node-1", platform.ErrAgentNotFound)
		}), false, nil, []uint64{v + 1}, 2, 1},
		{"UnreachableThenOK", firstThenOK(func(uint64) (Status, uint64, error) {
			return 0, 0, errors.New("dial node-1: connection refused")
		}), false, nil, []uint64{v + 1}, 2, 1},
		{"StaleForever", stale, false, ErrRetriesExhausted,
			[]uint64{v + 1, v + 2, v + 3, v + 4, v + 5, v + 6, v + 7, v + 8}, maxProtocolRetries, maxProtocolRetries - 1},
		{"CancelledMidBackoff", firstThenOK(func(version uint64) (Status, uint64, error) {
			return StatusNotResponsible, version + 3, nil
		}), true, context.Canceled, []uint64{v + 3}, 1, 1},
		{"UnknownAgent", func(n int, version uint64) (Status, uint64, error) {
			return StatusUnknownAgent, version, nil
		}, false, ErrNotRegistered, nil, 1, 0},
	}
	for _, op := range ops {
		for _, sc := range scripts {
			t.Run(op.name+"/"+sc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				caller := &scriptCaller{reg: metrics.New(), rec: trace.NewRecorder("node-0", 1024, 1), answer: sc.answer, version: v}
				clk := stepClock{Fake: clock.NewFake(time.Unix(0, 0))}
				if sc.cancel {
					clk.onWait = cancel
				}
				cfg := quietConfig()
				cfg.Clock = clk
				cfg.LocateCacheTTL = time.Hour
				client := NewClient(caller, cfg)
				if op.batched {
					b := NewUpdateBatcher(caller, quietConfig(), 100*time.Microsecond)
					defer b.Close()
					client.WithBatcher(b)
				}
				if op.kind != KindLocate {
					// An entry the loop must drop once the mapping proves stale
					// (a Locate would answer from it without asking).
					client.cache.put(agent, "node-9", v)
				}

				err := op.do(ctx, client)
				if !errors.Is(err, sc.wantErr) || (sc.wantErr == nil) != (err == nil) {
					t.Fatalf("error = %v, want %v", err, sc.wantErr)
				}
				if !slices.Equal(caller.refresh, sc.wantRefresh) {
					t.Errorf("refresh MinVersions = %v, want %v", caller.refresh, sc.wantRefresh)
				}
				if len(caller.calls) != sc.wantCalls {
					t.Errorf("%d IAgent requests %v, want %d", len(caller.calls), caller.calls, sc.wantCalls)
				}
				for i, kind := range caller.calls {
					if kind != op.kind {
						t.Errorf("IAgent request %d is %s, want %s", i, kind, op.kind)
					}
				}
				s := caller.reg.Snapshot()
				if got := s.Counter("agentloc_core_client_retries_total", "op", op.op); got != sc.wantRetries {
					t.Errorf("retries{op=%s} = %d, want %d", op.op, got, sc.wantRetries)
				}
				wantLat := uint64(0)
				if sc.wantErr == nil {
					wantLat = 1
				}
				if got := s.HistogramSnap("agentloc_core_" + op.op + "_latency_seconds").Count; got != wantLat {
					t.Errorf("%s latency observations = %d, want %d", op.op, got, wantLat)
				}
				var attempts []string
				for _, sp := range caller.rec.Snapshot() {
					if sp.Tier == "client" && sp.Name == op.child {
						attempts = append(attempts, sp.Attr("attempt"))
					}
				}
				want := make([]string, sc.wantCalls)
				for i := 1; i < len(want); i++ {
					want[i] = strconv.Itoa(i)
				}
				if !slices.Equal(attempts, want) {
					t.Errorf("%s spans' attempt annotations = %q, want %q", op.child, attempts, want)
				}
				client.cache.mu.Lock()
				i, held := client.cache.index[agent]
				var node platform.NodeID
				if held {
					node = client.cache.slots[i].node
				}
				client.cache.mu.Unlock()
				if op.kind == KindLocate && sc.wantErr == nil {
					if node != "node-2" {
						t.Errorf("cache holds %q for the located agent, want node-2", node)
					}
				} else if held {
					t.Errorf("cache still holds %q for the agent", node)
				}
			})
		}
	}
}

// TestLocateBatchRejectsOwnerCountMismatch: a whois-batch reply names one
// owner per target. A short or long Owner list is a corrupt reply, answered
// with an error before any frame leaves: no panic, and no frame carrying an
// empty agent id.
func TestLocateBatchRejectsOwnerCountMismatch(t *testing.T) {
	for _, owners := range [][]uint32{{}, {0}, {0, 0, 0}} {
		caller := &scriptCaller{owners: owners, version: 1}
		_, err := NewClient(caller, quietConfig()).LocateBatch(context.Background(), []ids.AgentID{"a", "b"})
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%d owners for 2 targets: error = %v, want wire.ErrCorrupt", len(owners), err)
		}
		if len(caller.calls) != 0 {
			t.Errorf("%d owners for 2 targets: sent %v", len(owners), caller.calls)
		}
	}
}
