package core

import (
	"context"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// This file implements the paper's third open problem (§6): "guaranteed
// agent discovery; that is, ensuring that the location of an agent is found
// even if an agent moves faster than the requests for its location".
//
// The locate-then-call pattern can livelock against a fast mover: by the
// time the caller reaches the reported node, the agent has hopped. The
// mechanism here side-steps the race with a rendezvous at the IAgent:
//
//   - A sender deposits a message at the target's IAgent (KindDeposit).
//     The deposit follows the same responsibility/staleness rules as every
//     other IAgent operation, so rehashing is transparent to senders.
//   - A mobile agent checks in with its IAgent on every arrival
//     (KindCheckIn = location update + mail collection in one round trip).
//     Whatever was deposited since its last check-in is delivered with the
//     acknowledgement.
//
// Delivery is therefore guaranteed at the target's next arrival, no matter
// how fast it moves — the faster it moves, the sooner it checks in.
// Pending messages follow rehash handoffs, so splits and merges cannot
// lose mail.

// Discovery message kinds.
const (
	// KindDeposit leaves a message for an agent at its IAgent.
	KindDeposit = "loc.deposit"
	// KindCheckIn reports a new location and collects pending messages.
	KindCheckIn = "loc.checkin"
)

// Deposited is one message held by an IAgent for a mobile agent.
type Deposited struct {
	// From is the sending agent (or client identity), informational.
	From ids.AgentID
	// Kind names the application message type.
	Kind string
	// Payload is the opaque message body.
	Payload []byte
}

// DepositReq leaves a message for Target at its IAgent.
type DepositReq struct {
	Target  ids.AgentID
	Message Deposited
}

// CheckInReq reports the agent's new node and asks for pending mail.
type CheckInReq struct {
	Agent ids.AgentID
	Node  platform.NodeID
}

// CheckInResp acknowledges the location update and delivers pending mail.
type CheckInResp struct {
	Ack     Ack
	Pending []Deposited
}

// deposit serves KindDeposit on the IAgent.
func (b *IAgentBehavior) deposit(ctx *platform.Context, req DepositReq) Ack {
	b.est.Record()
	hash := req.Target.Hash64()
	ok, version := b.responsible(ctx, hash)
	if !ok {
		b.metStale.Inc()
		return Ack{Status: StatusNotResponsible, HashVersion: version}
	}
	// A deposit counts as a request to its target, if the table holds it; the
	// charge is split statistics, so it is neither logged nor checkpointed.
	b.leaf.apply([]change{{agent: req.Target, hash: hash, load: 1}})
	b.mu.Lock()
	b.Pending[req.Target] = append(b.Pending[req.Target], req.Message)
	b.mu.Unlock()
	return Ack{Status: StatusOK, HashVersion: version}
}

// checkIn serves KindCheckIn on the IAgent: an update plus mail delivery.
func (b *IAgentBehavior) checkIn(ctx *platform.Context, req CheckInReq) (CheckInResp, error) {
	ack, err := b.recordLocation(ctx, UpdateReq{Agent: req.Agent, Node: req.Node}, false)
	if err != nil {
		return CheckInResp{}, err
	}
	if ack.Status != StatusOK {
		return CheckInResp{Ack: ack}, nil
	}
	b.mu.Lock()
	pending := b.Pending[req.Agent]
	delete(b.Pending, req.Agent)
	b.mu.Unlock()
	return CheckInResp{Ack: ack, Pending: pending}, nil
}

// Deposit leaves a message for the target agent at its IAgent; the target
// receives it at its next check-in, however fast it is moving.
func (c *Client) Deposit(ctx context.Context, from, target ids.AgentID, kind string, payload []byte) error {
	sp, ctx, rpcs := c.startOp(ctx, "deposit")
	req := DepositReq{Target: target, Message: Deposited{From: from, Kind: kind, Payload: payload}}
	_, err := c.run(ctx, &c.ops.deposit, target, Assignment{}, func(ctx context.Context, assign Assignment) (Status, uint64, error) {
		var ack Ack
		err := c.call(ctx, assign.Node, assign.IAgent, KindDeposit, req, &ack)
		return ack.Status, ack.HashVersion, err
	})
	endOp(sp, rpcs, err)
	return err
}

// CheckIn reports the agent's current node (like MoveNotify) and collects
// any messages deposited for it since its last check-in. Like every
// acknowledged location report, it drops the client's cache entry for the
// agent.
func (c *Client) CheckIn(ctx context.Context, self ids.AgentID, cached Assignment) (Assignment, []Deposited, error) {
	sp, ctx, rpcs := c.startOp(ctx, "checkin")
	var resp CheckInResp
	assign, err := c.run(ctx, &c.ops.checkin, self, cached, func(ctx context.Context, assign Assignment) (Status, uint64, error) {
		resp = CheckInResp{}
		err := c.call(ctx, assign.Node, assign.IAgent, KindCheckIn, CheckInReq{Agent: self, Node: c.local}, &resp)
		return resp.Ack.Status, resp.Ack.HashVersion, err
	})
	endOp(sp, rpcs, err)
	if err != nil {
		return Assignment{}, nil, err
	}
	c.cache.invalidate(self)
	return assign, resp.Pending, nil
}

// decodeDiscovery routes the discovery kinds inside IAgent.HandleRequest;
// it returns (nil, false, nil) for other kinds.
func (b *IAgentBehavior) decodeDiscovery(ctx *platform.Context, kind string, payload []byte) (any, bool, error) {
	switch kind {
	case KindDeposit:
		var req DepositReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		return b.deposit(ctx, req), true, nil
	case KindCheckIn:
		var req CheckInReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, true, err
		}
		resp, err := b.checkIn(ctx, req)
		return resp, true, err
	default:
		return nil, false, nil
	}
}
