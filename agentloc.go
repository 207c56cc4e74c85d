// Package agentloc is a scalable hash-based location service for mobile
// agents, reproducing Kastidou, Pitoura and Samaras, "A Scalable Hash-Based
// Mobile Agent Location Mechanism" (ICDCS Workshops 2003).
//
// The library has three layers, all exposed through this package:
//
//   - A transport layer (NewNetwork for an in-process simulated LAN with
//     latency/loss/partition injection; NewTCP for real multi-process
//     deployment over TCP, envelopes travelling as binary frames whose hot
//     payloads are hand-rolled binary and control-plane payloads gob).
//   - A mobile-agent platform (NewNode): nodes host agents, agents are
//     goroutines with strictly serial mailboxes, they message each other by
//     agent@node address, and they migrate between nodes carrying their
//     gob-serialized state.
//   - The location mechanism itself (Deploy): IAgents track the current
//     node of every mobile agent hashed to them through an extendible hash
//     tree; the HAgent holds the primary copy of the hash function; one
//     LHAgent per node caches a secondary copy, refreshed on demand. When
//     an IAgent's request rate leaves [Tmin, Tmax] it is split or merged,
//     and only the agents it serves are remapped.
//
// # Quickstart
//
//	net := agentloc.NewNetwork(agentloc.NetworkConfig{})
//	defer net.Close()
//	var nodes []*agentloc.Node
//	for _, id := range []agentloc.NodeID{"n0", "n1", "n2"} {
//		n, _ := agentloc.NewNode(agentloc.NodeConfig{ID: id, Link: net})
//		defer n.Close()
//		nodes = append(nodes, n)
//	}
//	svc, _ := agentloc.Deploy(ctx, agentloc.DefaultConfig(), nodes)
//	client := svc.ClientFor(nodes[0])
//	client.Register(ctx, "my-agent")       // from my-agent's node
//	where, _ := client.Locate(ctx, "my-agent")
//
// A centralized baseline with the same client surface is available through
// DeployCentralized for comparison, and the workload/experiment packages
// regenerate the paper's Figures 7 and 8 (see cmd/locsim).
package agentloc

import (
	"context"
	"time"

	"agentloc/internal/centralized"
	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// Identity types.
type (
	// AgentID names a mobile agent.
	AgentID = ids.AgentID
	// NodeID names a platform node; it doubles as its transport address.
	NodeID = platform.NodeID
	// ResidenceID names a residence handle: a node-centric indirection a
	// swarm of co-resident agents binds to, so one RPC re-points them all
	// when they migrate together.
	ResidenceID = ids.ResidenceID
)

// NodeResidence returns the conventional residence handle of a node.
func NodeResidence(node NodeID) ResidenceID { return ids.NodeResidence(string(node)) }

// Transport layer.
type (
	// Link is an asynchronous envelope carrier between named endpoints, the
	// transport a node is given in NodeConfig.Link. Its methods are sealed:
	// the only Links are a *Network, a *TCP, or either behind the transport
	// package's envelope counters (what locnode runs).
	Link = transport.Link
	// NetworkConfig tunes the in-process simulated network.
	NetworkConfig = transport.NetworkConfig
	// Network is the in-process simulated LAN.
	Network = transport.Network
	// TCPConfig configures the TCP transport.
	TCPConfig = transport.TCPConfig
	// TCP carries envelopes over real TCP connections.
	TCP = transport.TCP
	// Faults injects connection-level failures into a TCP link (stalled
	// writes, resets, slow accept, corrupt streams) for tests and chaos
	// runs; wire one through TCPConfig.Faults.
	Faults = transport.Faults
)

// NewNetwork creates an in-process simulated network.
func NewNetwork(cfg NetworkConfig) *Network { return transport.NewNetwork(cfg) }

// NewTCP creates a TCP transport listening on cfg.ListenOn.
func NewTCP(cfg TCPConfig) (*TCP, error) { return transport.NewTCP(cfg) }

// NewFaults returns a disarmed fault injector for TCPConfig.Faults.
func NewFaults() *Faults { return transport.NewFaults() }

// FixedLatency returns a constant-latency function for NetworkConfig.
func FixedLatency(d time.Duration) transport.LatencyFunc { return transport.FixedLatency(d) }

// Platform layer.
type (
	// Node hosts agents and serves the platform wire protocol.
	Node = platform.Node
	// NodeConfig configures a node.
	NodeConfig = platform.Config
	// Behavior is an agent's application logic.
	Behavior = platform.Behavior
	// Runner is implemented by active (roaming) agents.
	Runner = platform.Runner
	// AgentContext is the platform interface handed to behaviours.
	AgentContext = platform.Context
)

// NewNode creates a platform node bound to its transport address.
func NewNode(cfg NodeConfig) (*Node, error) { return platform.NewNode(cfg) }

// Observability.
type (
	// TraceLog is a bounded per-node event log; pass one in
	// NodeConfig.Trace to record the mechanism's rehash decisions.
	TraceLog = trace.Log
	// TraceEvent is one recorded occurrence.
	TraceEvent = trace.Event
)

// NewTraceLog returns a log retaining the most recent capacity events.
func NewTraceLog(capacity int) *TraceLog { return trace.NewLog(capacity) }

// RegisterBehavior registers a migrating behaviour's concrete type with
// gob; call once per type before any agent of that type moves.
func RegisterBehavior(b Behavior) { platform.RegisterBehavior(b) }

// WithServiceTime sets an agent's simulated per-request processing time.
func WithServiceTime(d time.Duration) platform.LaunchOption { return platform.WithServiceTime(d) }

// Location mechanism.
type (
	// Config tunes the mechanism (thresholds, windows, placement).
	Config = core.Config
	// Service fronts a deployed mechanism.
	Service = core.Service
	// Client speaks the location protocol from one vantage point.
	Client = core.Client
	// Assignment caches which IAgent serves an agent.
	Assignment = core.Assignment
	// ResidenceGroup tracks a residence handle's members client-side and
	// migrates them all with one RPC per responsible IAgent (see
	// Client.ResidenceGroup).
	ResidenceGroup = core.ResidenceGroup
	// Query selects agents by capability for Client.Discover.
	Query = core.Query
	// Match is one capability-discovery result: agent plus current node.
	Match = core.Match
	// Caller abstracts who is speaking to the service.
	Caller = core.Caller
	// NodeCaller adapts a *Node to Caller.
	NodeCaller = core.NodeCaller
	// CtxCaller adapts an agent's context to Caller.
	CtxCaller = core.CtxCaller
	// HashStats reports the HAgent's rehashing counters and tree shape.
	HashStats = core.HashStatsResp
)

// Re-exported sentinel errors.
var (
	// ErrNotRegistered reports a Locate for an agent the service does not
	// know.
	ErrNotRegistered = core.ErrNotRegistered
)

// DefaultConfig returns the paper's configuration (Tmax 50/s, Tmin 5/s).
func DefaultConfig() Config { return core.DefaultConfig() }

// Deploy launches the hash-based location mechanism across the nodes: the
// HAgent, one LHAgent per node, and the initial IAgent.
func Deploy(ctx context.Context, cfg Config, nodes []*Node) (*Service, error) {
	return core.Deploy(ctx, cfg, nodes)
}

// NewClient builds a protocol client for an arbitrary caller (agents use
// CtxCaller, external processes NodeCaller).
func NewClient(caller Caller, cfg Config) *Client { return core.NewClient(caller, cfg) }

// LHAgentID returns the well-known id of the LHAgent at a node.
func LHAgentID(node NodeID) AgentID { return core.LHAgentID(node) }

// Centralized baseline.
type (
	// CentralizedConfig locates the baseline's single central agent.
	CentralizedConfig = centralized.Config
	// CentralizedService fronts a deployed baseline.
	CentralizedService = centralized.Service
	// CentralizedClient speaks the same protocol against the baseline.
	CentralizedClient = centralized.Client
)

// DeployCentralized launches the single-agent baseline scheme (paper §5's
// comparison point) with the given per-request service time.
func DeployCentralized(ctx context.Context, cfg CentralizedConfig, nodes []*Node, serviceTime time.Duration) (*CentralizedService, error) {
	return centralized.Deploy(ctx, cfg, nodes, serviceTime)
}

// DefaultCentralizedConfig returns the conventional baseline identity.
func DefaultCentralizedConfig() CentralizedConfig { return centralized.DefaultConfig() }
