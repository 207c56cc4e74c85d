// Package centralized implements the baseline location scheme the paper
// compares against (§5): a single central agent that maintains the current
// location of every mobile agent in the system. It performs the same
// functions as an IAgent — same message kinds, same service time — but
// there is exactly one of it, it never splits, and clients need no hash
// lookup to find it.
package centralized

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// AgentBehavior is the central location agent. Its strictly serial mailbox
// is the scheme's scalability bottleneck — precisely the effect Experiment
// I and II measure.
type AgentBehavior struct {
	// Table maps every registered agent to its current node.
	Table map[ids.AgentID]platform.NodeID
}

var _ platform.Behavior = (*AgentBehavior)(nil)

func init() {
	gob.Register(&AgentBehavior{})
}

// HandleRequest implements platform.Behavior using the same protocol
// messages as IAgents, minus responsibility checks.
func (b *AgentBehavior) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	if b.Table == nil {
		b.Table = make(map[ids.AgentID]platform.NodeID)
	}
	switch kind {
	case core.KindRegister, core.KindUpdate:
		var req core.UpdateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		b.Table[req.Agent] = req.Node
		return core.Ack{Status: core.StatusOK}, nil
	case core.KindDeregister:
		var req core.DeregisterReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		delete(b.Table, req.Agent)
		return core.Ack{Status: core.StatusOK}, nil
	case core.KindLocate:
		var req core.LocateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		node, ok := b.Table[req.Agent]
		if !ok {
			return core.LocateResp{Status: core.StatusUnknownAgent}, nil
		}
		return core.LocateResp{Status: core.StatusOK, Node: node}, nil
	default:
		return nil, fmt.Errorf("central agent: unknown request kind %q", kind)
	}
}

// Config locates the central agent.
type Config struct {
	// Agent is the central agent's id.
	Agent ids.AgentID
	// Node is the node hosting it.
	Node platform.NodeID
	// CallTimeout bounds each RPC to the central agent on top of the
	// caller's context, so a lost reply costs a timeout instead of hanging
	// a deadline-less caller. Zero leaves calls bounded only by the
	// caller's context.
	CallTimeout time.Duration
}

// DefaultConfig returns the conventional central agent identity.
func DefaultConfig() Config {
	return Config{Agent: "central", CallTimeout: 10 * time.Second}
}

// Service deploys and fronts the centralized scheme.
type Service struct {
	cfg Config
}

// Deploy launches the central agent. serviceTime matches the IAgents' per
// request cost so the comparison is apples-to-apples (paper §5: "this
// central agent performs the same functions as the IAgents").
func Deploy(ctx context.Context, cfg Config, nodes []*platform.Node, serviceTime time.Duration) (*Service, error) {
	if len(nodes) == 0 {
		return nil, errors.New("centralized: deploy: no nodes")
	}
	if cfg.Agent == "" {
		return nil, errors.New("centralized: deploy: empty agent id")
	}
	if cfg.Node == "" {
		cfg.Node = nodes[0].ID()
	}
	for _, n := range nodes {
		if n.ID() != cfg.Node {
			continue
		}
		err := n.Launch(cfg.Agent, &AgentBehavior{}, platform.WithServiceTime(serviceTime))
		if err != nil {
			return nil, fmt.Errorf("centralized: deploy: %w", err)
		}
		return &Service{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("centralized: deploy: node %s not among the given nodes", cfg.Node)
}

// Config returns the deployed configuration.
func (s *Service) Config() Config { return s.cfg }

// ClientFor returns a protocol client speaking from the given node.
func (s *Service) ClientFor(n *platform.Node) *Client {
	return NewClient(core.NodeCaller{N: n}, s.cfg)
}

// Client implements the same client surface as core.Client against the
// central agent, so workloads can drive either scheme interchangeably.
type Client struct {
	caller core.Caller
	cfg    Config
}

// NewClient builds a Client for the given caller.
func NewClient(caller core.Caller, cfg Config) *Client {
	return &Client{caller: caller, cfg: cfg}
}

// assignment is the fixed "who serves me" answer of the centralized scheme.
func (c *Client) assignment() core.Assignment {
	return core.Assignment{IAgent: c.cfg.Agent, Node: c.cfg.Node}
}

// call issues one RPC to the central agent, bounded by cfg.CallTimeout on
// top of the caller's context (mirroring core.Client).
func (c *Client) call(ctx context.Context, kind string, req, resp any) error {
	if c.cfg.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
	}
	return c.caller.Go(ctx, c.cfg.Node, c.cfg.Agent, kind, req, resp).Wait()
}

// Register announces a newly created agent's location.
func (c *Client) Register(ctx context.Context, self ids.AgentID) (core.Assignment, error) {
	var ack core.Ack
	req := core.UpdateReq{Agent: self, Node: c.caller.LocalNode()}
	if err := c.call(ctx, core.KindRegister, req, &ack); err != nil {
		return core.Assignment{}, fmt.Errorf("centralized register %s: %w", self, err)
	}
	return c.assignment(), nil
}

// MoveNotify reports the agent's new location (the caller's node).
func (c *Client) MoveNotify(ctx context.Context, self ids.AgentID, _ core.Assignment) (core.Assignment, error) {
	var ack core.Ack
	req := core.UpdateReq{Agent: self, Node: c.caller.LocalNode()}
	if err := c.call(ctx, core.KindUpdate, req, &ack); err != nil {
		return core.Assignment{}, fmt.Errorf("centralized update %s: %w", self, err)
	}
	return c.assignment(), nil
}

// Deregister removes the agent's entry.
func (c *Client) Deregister(ctx context.Context, self ids.AgentID, _ core.Assignment) error {
	var ack core.Ack
	req := core.DeregisterReq{Agent: self}
	if err := c.call(ctx, core.KindDeregister, req, &ack); err != nil {
		return fmt.Errorf("centralized deregister %s: %w", self, err)
	}
	return nil
}

// Locate returns the current node of the target agent.
func (c *Client) Locate(ctx context.Context, target ids.AgentID) (platform.NodeID, error) {
	var resp core.LocateResp
	req := core.LocateReq{Agent: target}
	if err := c.call(ctx, core.KindLocate, req, &resp); err != nil {
		return "", fmt.Errorf("centralized locate %s: %w", target, err)
	}
	if resp.Status == core.StatusUnknownAgent {
		return "", fmt.Errorf("centralized locate %s: %w", target, core.ErrNotRegistered)
	}
	return resp.Node, nil
}
