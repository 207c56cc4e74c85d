package core

import (
	"fmt"
	"testing"

	"agentloc/internal/ids"
)

func TestDepositAndCheckIn(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	target := ids.AgentID("wanderer")
	client0 := c.service.ClientFor(c.nodes[0])
	assign, err := client0.Register(ctx, target)
	if err != nil {
		t.Fatal(err)
	}

	// Two senders deposit while the target is "between hops".
	sender := c.service.ClientFor(c.nodes[1])
	if err := sender.Deposit(ctx, "alice", target, "greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := sender.Deposit(ctx, "bob", target, "task", []byte("fetch prices")); err != nil {
		t.Fatal(err)
	}

	// The target arrives at node 2 and checks in: update + mail, one
	// round trip.
	client2 := c.service.ClientFor(c.nodes[2])
	newAssign, pending, err := client2.CheckIn(ctx, target, assign)
	if err != nil {
		t.Fatal(err)
	}
	if newAssign.Zero() {
		t.Fatal("check-in returned zero assignment")
	}
	if len(pending) != 2 {
		t.Fatalf("pending = %d messages, want 2", len(pending))
	}
	if pending[0].From != "alice" || pending[0].Kind != "greeting" || string(pending[0].Payload) != "hello" {
		t.Errorf("first message = %+v", pending[0])
	}
	if pending[1].From != "bob" {
		t.Errorf("second message from %s, want bob", pending[1].From)
	}

	// The check-in also updated the location.
	where, err := client0.Locate(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if where != c.nodes[2].ID() {
		t.Errorf("located at %s, want node-2", where)
	}

	// Mail is delivered exactly once.
	_, pending, err = client2.CheckIn(ctx, target, newAssign)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Errorf("second check-in delivered %d messages, want 0", len(pending))
	}
}

func TestDepositForUnregisteredAgentHeld(t *testing.T) {
	// A deposit can precede registration: the IAgent holds it until the
	// agent's first check-in (creation order is not observable in an
	// asynchronous system, so this must work).
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)

	sender := c.service.ClientFor(c.nodes[0])
	if err := sender.Deposit(ctx, "early", "late-bird", "welcome", nil); err != nil {
		t.Fatal(err)
	}
	client := c.service.ClientFor(c.nodes[1])
	_, pending, err := client.CheckIn(ctx, "late-bird", Assignment{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].From != "early" {
		t.Fatalf("pending = %+v, want the early deposit", pending)
	}
}

// TestDepositBeforeRegistrationFollowsRehash: mail held for a target that has
// not registered yet leaves with the target's id space when a split moves it,
// so the target, registering with its new IAgent, still receives it.
func TestDepositBeforeRegistrationFollowsRehash(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	homes := registerMany(t, c, ctx, 16)
	sender := c.service.ClientFor(c.nodes[0])
	early := make([]ids.AgentID, 16)
	for i := range early {
		early[i] = ids.AgentID(fmt.Sprintf("late-bird-%d", i))
		if err := sender.Deposit(ctx, "early", early[i], "welcome", []byte(early[i])); err != nil {
			t.Fatal(err)
		}
	}
	forceSplit(t, c, ctx, "iagent-1", homes)

	st := hashState(t, c, ctx)
	client := c.service.ClientFor(c.nodes[1])
	moved := 0
	for _, target := range early {
		if owner, _, _ := st.OwnerOf(target); owner != "iagent-1" {
			moved++
		}
		if _, err := client.Register(ctx, target); err != nil {
			t.Fatal(err)
		}
		_, pending, err := client.CheckIn(ctx, target, Assignment{})
		if err != nil {
			t.Fatalf("check-in %s: %v", target, err)
		}
		if len(pending) != 1 || string(pending[0].Payload) != string(target) {
			t.Errorf("%s received %+v, want its one early message", target, pending)
		}
	}
	if moved == 0 {
		t.Fatal("the split moved none of the targets; the test would be vacuous")
	}
}

// TestDeregisterDropsMail: a disposed agent's mail goes with its entry — it
// does not ride the next handoff, and an agent registering later under the
// same id receives none of it.
func TestDeregisterDropsMail(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 2)
	ctx := testCtx(t)
	cfg := c.service.Config()
	// The first leaf is swapped for one the test can look into.
	initial := hashState(t, c, ctx)
	if err := c.nodes[0].Kill("iagent-1"); err != nil {
		t.Fatal(err)
	}
	leaf1 := &IAgentBehavior{Cfg: cfg, StateSnapshot: initial.DTO()}
	if err := c.nodes[0].Launch("iagent-1", leaf1); err != nil {
		t.Fatal(err)
	}

	homes := registerMany(t, c, ctx, 16)
	client := c.service.ClientFor(c.nodes[1])
	for agent := range homes {
		if err := client.Deposit(ctx, "oracle", agent, "note", nil); err != nil {
			t.Fatal(err)
		}
		if err := client.Deregister(ctx, agent, Assignment{}); err != nil {
			t.Fatal(err)
		}
	}
	forceSplit(t, c, ctx, "iagent-1", homes)

	leaf1.mu.Lock()
	held := len(leaf1.Pending)
	leaf1.mu.Unlock()
	if held != 0 {
		t.Errorf("iagent-1 still holds mail for %d deregistered agents", held)
	}
	for agent := range homes {
		if _, err := client.Register(ctx, agent); err != nil {
			t.Fatal(err)
		}
		if _, pending, err := client.CheckIn(ctx, agent, Assignment{}); err != nil || len(pending) != 0 {
			t.Errorf("%s, registered again, received %d messages (%v); want none", agent, len(pending), err)
		}
	}
}

// TestDepositSurvivesRehash checks the extension's interaction with the
// core mechanism: pending mail follows the handoff when the responsible
// IAgent changes.
func TestDepositSurvivesRehash(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)
	cfg := c.service.Config()

	// Register a population and deposit one message for each agent.
	homes := registerMany(t, c, ctx, 16)
	sender := c.service.ClientFor(c.nodes[1])
	for agent := range homes {
		if err := sender.Deposit(ctx, "oracle", agent, "note", []byte(agent)); err != nil {
			t.Fatal(err)
		}
	}

	// Force a split: half the agents move to a new IAgent, and their mail
	// must move with them.
	perAgent := make(map[ids.AgentID]uint64, len(homes))
	for agent := range homes {
		perAgent[agent] = 3
	}
	var resp RehashResp
	err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestSplit,
		RequestSplitReq{IAgent: "iagent-1", HashVersion: 1, Rate: 999, PerAgent: perAgent}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("split status = %v", resp.Status)
	}

	// Every agent checks in (from its home node's client) and must
	// receive exactly its one message.
	for agent, home := range homes {
		var client *Client
		for _, n := range c.nodes {
			if n.ID() == home {
				client = c.service.ClientFor(n)
			}
		}
		_, pending, err := client.CheckIn(ctx, agent, Assignment{})
		if err != nil {
			t.Fatalf("check-in %s: %v", agent, err)
		}
		if len(pending) != 1 || string(pending[0].Payload) != string(agent) {
			t.Errorf("%s received %+v, want its one note", agent, pending)
		}
	}
}

// TestFastMoverReceivesDeposits is the headline guarantee: a target that
// relocates constantly still receives every deposited message, because
// delivery rides its own check-ins instead of chasing it.
func TestFastMoverReceivesDeposits(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 4)
	ctx := testCtx(t)

	target := ids.AgentID("speedy")
	assign, err := c.service.ClientFor(c.nodes[0]).Register(ctx, target)
	if err != nil {
		t.Fatal(err)
	}

	sender := c.service.ClientFor(c.nodes[3])
	const messages = 20
	received := 0
	// Interleave deposits with rapid "hops": the agent checks in from a
	// different node each time, collecting whatever arrived meanwhile.
	for i := 0; i < messages; i++ {
		if err := sender.Deposit(ctx, "hq", target, "cmd", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		node := c.nodes[i%len(c.nodes)]
		var pending []Deposited
		assign, pending, err = c.service.ClientFor(node).CheckIn(ctx, target, assign)
		if err != nil {
			t.Fatal(err)
		}
		received += len(pending)
	}
	// Final check-in drains anything still queued.
	_, pending, err := c.service.ClientFor(c.nodes[0]).CheckIn(ctx, target, assign)
	if err != nil {
		t.Fatal(err)
	}
	received += len(pending)
	if received != messages {
		t.Errorf("received %d messages, want %d (none lost, none duplicated)", received, messages)
	}
}
