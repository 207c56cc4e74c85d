package core

import (
	"fmt"
	"testing"
	"time"

	"agentloc/internal/ids"
)

func TestPlacementTargetSelection(t *testing.T) {
	b := &IAgentBehavior{
		Cfg:  Config{PlacementMajority: 0.6, PlacementMinAgents: 4},
		Leaf: newLeafState(),
	}
	// Too few agents.
	b.Leaf.table.Put("a", "far")
	if _, ok := b.placementTarget("home"); ok {
		t.Error("relocated for a single agent")
	}
	// Majority elsewhere.
	for i := 0; i < 7; i++ {
		b.Leaf.table.Put(ids.AgentID(fmt.Sprintf("m-%d", i)), "far")
	}
	for i := 0; i < 3; i++ {
		b.Leaf.table.Put(ids.AgentID(fmt.Sprintf("h-%d", i)), "home")
	}
	target, ok := b.placementTarget("home")
	if !ok || target != "far" {
		t.Errorf("placementTarget = %v/%v, want far/true", target, ok)
	}
	// Already at the majority node.
	if _, ok := b.placementTarget("far"); ok {
		t.Error("relocated while already at the majority node")
	}
	// Majority below the threshold.
	b.Cfg.PlacementMajority = 0.9
	if _, ok := b.placementTarget("home"); ok {
		t.Error("relocated below the majority threshold")
	}
}

func TestPlacementRelocationEndToEnd(t *testing.T) {
	cfg := quietConfig()
	cfg.PlacementEnabled = true
	cfg.PlacementInterval = 150 * time.Millisecond
	cfg.PlacementMajority = 0.6
	cfg.PlacementMinAgents = 5
	cfg.CheckInterval = 50 * time.Millisecond
	c := newTestCluster(t, cfg, 3)
	ctx := testCtx(t)

	// iagent-1 starts on node-0; register 12 agents, all living on node-2.
	client := c.service.ClientFor(c.nodes[2])
	agents := make([]ids.AgentID, 12)
	for i := range agents {
		agents[i] = ids.AgentID(fmt.Sprintf("placed-%d", i))
		if _, err := client.Register(ctx, agents[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The IAgent should migrate to node-2 within a few placement rounds.
	deadline := time.Now().Add(20 * time.Second)
	relocated := false
	for time.Now().Before(deadline) {
		stats, err := c.service.Stats(ctx)
		if err == nil && stats.Relocations >= 1 {
			if got := stats.Locations["iagent-1"]; got != c.nodes[2].ID() {
				t.Fatalf("iagent-1 relocated to %s, want %s", got, c.nodes[2].ID())
			}
			relocated = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !relocated {
		stats, _ := c.service.Stats(ctx)
		t.Fatalf("IAgent never relocated: %+v", stats)
	}
	// The directory updates before the IAgent finishes its transfer (step 2
	// vs step 3 of the placement protocol), so give the migration itself a
	// moment to land rather than racing it.
	hosted := false
	for time.Now().Before(deadline) {
		if c.nodes[2].Hosts("iagent-1") {
			hosted = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !hosted {
		t.Error("node-2 does not actually host iagent-1 after relocation")
	}

	// The service keeps working through the relocation: every agent is
	// still locatable, from stale and fresh vantage points alike.
	for _, n := range c.nodes {
		q := c.service.ClientFor(n)
		for _, id := range agents {
			got, err := q.Locate(ctx, id)
			if err != nil {
				t.Fatalf("locate %s via %s: %v", id, n.ID(), err)
			}
			if got != c.nodes[2].ID() {
				t.Errorf("locate %s = %s, want %s", id, got, c.nodes[2].ID())
			}
		}
	}
}

func TestRelocateRequestValidation(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)
	cfg := c.service.Config()

	send := func(req RequestRelocateReq) RehashResp {
		t.Helper()
		var resp RehashResp
		err := c.nodes[0].CallAgent(ctx, cfg.HAgentNode, cfg.HAgent, KindRequestRelocate, req, &resp)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Stale version.
	if resp := send(RequestRelocateReq{IAgent: "iagent-1", From: "node-0", To: "node-1", HashVersion: 0}); resp.Status != StatusIgnored {
		t.Errorf("stale relocate status = %v", resp.Status)
	}
	// Unknown IAgent.
	if resp := send(RequestRelocateReq{IAgent: "nope", From: "node-0", To: "node-1", HashVersion: 1}); resp.Status != StatusIgnored {
		t.Errorf("unknown IAgent relocate status = %v", resp.Status)
	}
	// Wrong From.
	if resp := send(RequestRelocateReq{IAgent: "iagent-1", From: "node-9", To: "node-1", HashVersion: 1}); resp.Status != StatusIgnored {
		t.Errorf("wrong-from relocate status = %v", resp.Status)
	}
	// No-op target.
	if resp := send(RequestRelocateReq{IAgent: "iagent-1", From: "node-0", To: "node-0", HashVersion: 1}); resp.Status != StatusIgnored {
		t.Errorf("no-op relocate status = %v", resp.Status)
	}
	// Valid relocation bumps the version.
	resp := send(RequestRelocateReq{IAgent: "iagent-1", From: "node-0", To: "node-1", HashVersion: 1})
	if resp.Status != StatusOK || resp.HashVersion != 2 {
		t.Errorf("valid relocate = %+v, want OK v2", resp)
	}
	stats, err := c.service.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Locations["iagent-1"] != "node-1" {
		t.Errorf("directory entry = %s, want node-1", stats.Locations["iagent-1"])
	}
}

func TestPlacementConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PlacementEnabled = true
	if err := cfg.Validate(); err != nil {
		t.Errorf("default placement config invalid: %v", err)
	}
	cfg.PlacementInterval = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero PlacementInterval accepted")
	}
	cfg = DefaultConfig()
	cfg.PlacementEnabled = true
	cfg.PlacementMajority = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("PlacementMajority > 1 accepted")
	}
}
