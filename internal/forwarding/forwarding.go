// Package forwarding implements the location scheme of the paper's related
// work (§6) exemplified by ObjectSpace Voyager: a name service records
// where an agent was last registered, and "under some circumstances a node
// that the agent has visited during its trip … will forward the request
// until the agent is reached".
//
// Concretely: moves are cheap — the departing node keeps a forwarding
// pointer and the name service is not told — but locates degrade with the
// length of the pointer chain that has built up since the agent was last
// looked up. A successful locate compresses the chain by updating the name
// service (Voyager's lazy update). The trade is the mirror image of the
// paper's mechanism, which pays one update message per move to keep every
// locate O(1).
package forwarding

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// Message kinds of the forwarding protocol.
const (
	// KindRegister records an agent's starting node at the name service.
	KindRegister = "fwd.register"
	// KindLookup asks the name service for an agent's last known node.
	KindLookup = "fwd.lookup"
	// KindCompress updates the name service after a successful chase.
	KindCompress = "fwd.compress"
	// KindDeparted tells a node's forwarder that an agent left for a
	// destination.
	KindDeparted = "fwd.departed"
	// KindArrived tells a node's forwarder that an agent now resides
	// there.
	KindArrived = "fwd.arrived"
	// KindQuery asks a node's forwarder whether the agent is here or
	// where it went.
	KindQuery = "fwd.query"
	// KindDeregister removes an agent everywhere it is known.
	KindDeregister = "fwd.deregister"
)

// maxChase bounds pointer chases; a chain longer than this means the
// forwarders lost track (e.g. a crashed node) and the locate fails.
const maxChase = 64

// Wire types.
type (
	// RegisterReq records the agent's current node.
	RegisterReq struct {
		Agent ids.AgentID
		Node  platform.NodeID
	}
	// LookupReq asks for the agent's last known node.
	LookupReq struct {
		Agent ids.AgentID
	}
	// LookupResp answers a lookup.
	LookupResp struct {
		Known bool
		Node  platform.NodeID
	}
	// DepartedReq sets a forwarding pointer.
	DepartedReq struct {
		Agent ids.AgentID
		To    platform.NodeID
	}
	// ArrivedReq marks the agent resident (clearing stale pointers).
	ArrivedReq struct {
		Agent ids.AgentID
	}
	// QueryReq asks where the agent is, from this node's perspective.
	QueryReq struct {
		Agent ids.AgentID
	}
	// QueryResp answers a forwarder query.
	QueryResp struct {
		Here bool
		// Next is the forwarding target when the agent is not here;
		// empty if this node knows nothing about the agent.
		Next platform.NodeID
	}
	// DeregisterReq removes the agent's entries.
	DeregisterReq struct {
		Agent ids.AgentID
	}
)

// RegistryBehavior is the name service: agent → last known node.
type RegistryBehavior struct {
	Table map[ids.AgentID]platform.NodeID
}

var _ platform.Behavior = (*RegistryBehavior)(nil)

// HandleRequest implements platform.Behavior.
func (b *RegistryBehavior) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	if b.Table == nil {
		b.Table = make(map[ids.AgentID]platform.NodeID)
	}
	switch kind {
	case KindRegister, KindCompress:
		var req RegisterReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		b.Table[req.Agent] = req.Node
		return core.Ack{Status: core.StatusOK}, nil
	case KindLookup:
		var req LookupReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		node, ok := b.Table[req.Agent]
		return LookupResp{Known: ok, Node: node}, nil
	case KindDeregister:
		var req DeregisterReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		delete(b.Table, req.Agent)
		return core.Ack{Status: core.StatusOK}, nil
	default:
		return nil, fmt.Errorf("forwarding registry: unknown request kind %q", kind)
	}
}

// ForwarderBehavior lives on every node and remembers, per agent, whether
// it is resident here or where it went next.
type ForwarderBehavior struct {
	// Resident marks agents currently at this node.
	Resident map[ids.AgentID]bool
	// Next maps departed agents to their destination.
	Next map[ids.AgentID]platform.NodeID
}

var _ platform.Behavior = (*ForwarderBehavior)(nil)

// HandleRequest implements platform.Behavior.
func (b *ForwarderBehavior) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	if b.Resident == nil {
		b.Resident = make(map[ids.AgentID]bool)
	}
	if b.Next == nil {
		b.Next = make(map[ids.AgentID]platform.NodeID)
	}
	switch kind {
	case KindArrived:
		var req ArrivedReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		b.Resident[req.Agent] = true
		delete(b.Next, req.Agent)
		return core.Ack{Status: core.StatusOK}, nil
	case KindDeparted:
		var req DepartedReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		delete(b.Resident, req.Agent)
		b.Next[req.Agent] = req.To
		return core.Ack{Status: core.StatusOK}, nil
	case KindQuery:
		var req QueryReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if b.Resident[req.Agent] {
			return QueryResp{Here: true}, nil
		}
		return QueryResp{Next: b.Next[req.Agent]}, nil
	case KindDeregister:
		var req DeregisterReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		delete(b.Resident, req.Agent)
		delete(b.Next, req.Agent)
		return core.Ack{Status: core.StatusOK}, nil
	default:
		return nil, fmt.Errorf("forwarder: unknown request kind %q", kind)
	}
}

// ForwarderID names the forwarder agent at a node.
func ForwarderID(node platform.NodeID) ids.AgentID {
	return ids.AgentID("forwarder@" + string(node))
}

// Config locates the name service.
type Config struct {
	// Registry is the name-service agent's id.
	Registry ids.AgentID
	// Node hosts the registry.
	Node platform.NodeID
}

// DefaultConfig returns the conventional registry identity.
func DefaultConfig() Config {
	return Config{Registry: "fwd-registry"}
}

// Service fronts a deployed forwarding scheme.
type Service struct {
	cfg Config
}

// Deploy launches the registry (with the schemes' common service time) and
// one zero-cost forwarder per node.
func Deploy(ctx context.Context, cfg Config, nodes []*platform.Node, serviceTime time.Duration) (*Service, error) {
	if len(nodes) == 0 {
		return nil, errors.New("forwarding: deploy: no nodes")
	}
	if cfg.Registry == "" {
		return nil, errors.New("forwarding: deploy: empty registry id")
	}
	if cfg.Node == "" {
		cfg.Node = nodes[0].ID()
	}
	launched := false
	for _, n := range nodes {
		if n.ID() == cfg.Node {
			err := n.Launch(cfg.Registry, &RegistryBehavior{}, platform.WithServiceTime(serviceTime))
			if err != nil {
				return nil, fmt.Errorf("forwarding: deploy registry: %w", err)
			}
			launched = true
		}
		// Forwarders model the visited node's runtime forwarding a
		// request — charged at the same per-request cost.
		err := n.Launch(ForwarderID(n.ID()), &ForwarderBehavior{}, platform.WithServiceTime(serviceTime))
		if err != nil {
			return nil, fmt.Errorf("forwarding: deploy forwarder at %s: %w", n.ID(), err)
		}
	}
	if !launched {
		return nil, fmt.Errorf("forwarding: deploy: registry node %s not among the given nodes", cfg.Node)
	}
	return &Service{cfg: cfg}, nil
}

// Config returns the deployed configuration.
func (s *Service) Config() Config { return s.cfg }

// ClientFor returns a protocol client speaking from the given node.
func (s *Service) ClientFor(n *platform.Node) *Client {
	return NewClient(core.NodeCaller{N: n}, s.cfg)
}

// Client implements the shared location-client surface against the
// forwarding scheme. The cached Assignment's Node field carries the
// agent's previous node, which is where the departure pointer must be set.
type Client struct {
	caller core.Caller
	cfg    Config

	chainLen *metrics.Histogram
	tracer   *trace.Recorder
}

// NewClient builds a Client for the given caller. When the caller exposes a
// metrics registry, every successful locate observes the length of the
// pointer chain it chased into agentloc_forwarding_chain_length — the
// quantity the scheme trades against cheap moves. When the caller exposes a
// span recorder, locates are traced with one child span per chased hop.
func NewClient(caller core.Caller, cfg Config) *Client {
	c := &Client{caller: caller, cfg: cfg, tracer: core.CallerTracer(caller)}
	if reg := core.CallerRegistry(caller); reg != nil {
		reg.Describe("agentloc_forwarding_chain_length", "Forwarding-pointer hops chased per successful locate.")
		c.chainLen = reg.Histogram("agentloc_forwarding_chain_length", metrics.CountBuckets)
	}
	return c
}

var _ interface {
	Register(ctx context.Context, self ids.AgentID) (core.Assignment, error)
	Locate(ctx context.Context, target ids.AgentID) (platform.NodeID, error)
} = (*Client)(nil)

// Register announces a newly created agent: the name service learns its
// node and the local forwarder marks it resident.
func (c *Client) Register(ctx context.Context, self ids.AgentID) (core.Assignment, error) {
	here := c.caller.LocalNode()
	var ack core.Ack
	if err := c.caller.Go(ctx, c.cfg.Node, c.cfg.Registry, KindRegister, RegisterReq{Agent: self, Node: here}, &ack).Wait(); err != nil {
		return core.Assignment{}, fmt.Errorf("forwarding register %s: %w", self, err)
	}
	if err := c.caller.Go(ctx, here, ForwarderID(here), KindArrived, ArrivedReq{Agent: self}, &ack).Wait(); err != nil {
		return core.Assignment{}, fmt.Errorf("forwarding register %s: %w", self, err)
	}
	return core.Assignment{IAgent: c.cfg.Registry, Node: here}, nil
}

// MoveNotify is the scheme's cheap move: the PREVIOUS node (cached.Node)
// gets a forwarding pointer and the new node marks the agent resident. The
// name service is deliberately not told (that is the point of forwarding
// pointers).
func (c *Client) MoveNotify(ctx context.Context, self ids.AgentID, cached core.Assignment) (core.Assignment, error) {
	here := c.caller.LocalNode()
	var ack core.Ack
	if cached.Node != "" && cached.Node != here {
		err := c.caller.Go(ctx, cached.Node, ForwarderID(cached.Node), KindDeparted, DepartedReq{Agent: self, To: here}, &ack).Wait()
		if err != nil {
			return core.Assignment{}, fmt.Errorf("forwarding departure %s: %w", self, err)
		}
	}
	if err := c.caller.Go(ctx, here, ForwarderID(here), KindArrived, ArrivedReq{Agent: self}, &ack).Wait(); err != nil {
		return core.Assignment{}, fmt.Errorf("forwarding arrival %s: %w", self, err)
	}
	return core.Assignment{IAgent: c.cfg.Registry, Node: here}, nil
}

// Deregister removes the agent from the name service and its current
// node's forwarder.
func (c *Client) Deregister(ctx context.Context, self ids.AgentID, cached core.Assignment) error {
	var ack core.Ack
	if err := c.caller.Go(ctx, c.cfg.Node, c.cfg.Registry, KindDeregister, DeregisterReq{Agent: self}, &ack).Wait(); err != nil {
		return fmt.Errorf("forwarding deregister %s: %w", self, err)
	}
	if cached.Node != "" {
		err := c.caller.Go(ctx, cached.Node, ForwarderID(cached.Node), KindDeregister, DeregisterReq{Agent: self}, &ack).Wait()
		if err != nil {
			return fmt.Errorf("forwarding deregister %s: %w", self, err)
		}
	}
	return nil
}

// Locate asks the name service for the last known node and chases
// forwarding pointers from there; a successful chase compresses the chain
// by updating the name service.
func (c *Client) Locate(ctx context.Context, target ids.AgentID) (platform.NodeID, error) {
	var sp *trace.ActiveSpan
	if parent := trace.FromContext(ctx); parent.Valid() {
		sp = c.tracer.StartSpan(parent, "client", "fwd.locate")
	} else {
		sp = c.tracer.StartRoot("client", "fwd.locate")
	}
	if sp != nil {
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	node, hops, err := c.locate(ctx, target)
	sp.Annotate("hops", fmt.Sprintf("%d", hops))
	sp.End(err)
	return node, err
}

// locate runs the lookup-then-chase protocol, reporting how many pointer
// hops it chased.
func (c *Client) locate(ctx context.Context, target ids.AgentID) (platform.NodeID, int, error) {
	lsp, lctx := c.childSpan(ctx, "lookup")
	var looked LookupResp
	err := c.caller.Go(lctx, c.cfg.Node, c.cfg.Registry, KindLookup, LookupReq{Agent: target}, &looked).Wait()
	lsp.End(err)
	if err != nil {
		return "", 0, fmt.Errorf("forwarding lookup %s: %w", target, err)
	}
	if !looked.Known {
		return "", 0, fmt.Errorf("forwarding locate %s: %w", target, core.ErrNotRegistered)
	}
	at := looked.Node
	for hop := 0; hop < maxChase; hop++ {
		hsp, hctx := c.childSpan(ctx, "chase")
		hsp.Annotate("hop", fmt.Sprintf("%d", hop))
		hsp.Annotate("at", string(at))
		var resp QueryResp
		if err := c.caller.Go(hctx, at, ForwarderID(at), KindQuery, QueryReq{Agent: target}, &resp).Wait(); err != nil {
			hsp.End(err)
			return "", hop, fmt.Errorf("forwarding chase %s at %s: %w", target, at, err)
		}
		hsp.End(nil)
		if resp.Here {
			c.chainLen.Observe(float64(hop))
			if at != looked.Node {
				var ack core.Ack
				// Compression is an optimization; its failure must not
				// fail the locate.
				csp, cctx := c.childSpan(ctx, "compress")
				_ = c.caller.Go(cctx, c.cfg.Node, c.cfg.Registry, KindCompress, RegisterReq{Agent: target, Node: at}, &ack).Wait()
				csp.End(nil)
			}
			return at, hop, nil
		}
		if resp.Next == "" {
			// The chain went cold (agent mid-flight between departure and
			// arrival, or trace lost): indistinguishable from unknown.
			return "", hop, fmt.Errorf("forwarding locate %s: chain broke at %s: %w", target, at, core.ErrNotRegistered)
		}
		at = resp.Next
	}
	return "", maxChase, fmt.Errorf("forwarding locate %s: chain longer than %d", target, maxChase)
}

// childSpan opens a child span of ctx's trace context, returning a context
// parented under it; untraced contexts yield a nil (no-op) span.
func (c *Client) childSpan(ctx context.Context, name string) (*trace.ActiveSpan, context.Context) {
	sp := c.tracer.StartSpan(trace.FromContext(ctx), "client", name)
	if sp != nil {
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	return sp, ctx
}

func init() {
	gob.Register(&RegistryBehavior{})
	gob.Register(&ForwarderBehavior{})
}
