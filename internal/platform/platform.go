// Package platform is a from-scratch mobile-agent platform — the substitute
// for the Aglets platform the paper builds on. It provides exactly the
// primitives the location mechanism relies on:
//
//   - Nodes: execution contexts reachable over a transport.Link.
//   - Agents: units of behaviour hosted at a node, each with a serial
//     mailbox (one request at a time, with a configurable service time —
//     the serialism is what makes an overloaded agent a queueing
//     bottleneck, the effect the paper's experiments measure).
//   - Messaging: request/response calls addressed to agent@node.
//   - Mobility: an agent dispatches itself to another node; its behaviour
//     state is gob-serialized, shipped, and resumed there.
//
// Behaviours that migrate must be registered with RegisterBehavior so gob
// can reconstruct them on the receiving node.
package platform

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/snapshot"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// NodeID names a node. It doubles as the node's transport address.
type NodeID string

// Addr returns the node's transport address.
func (n NodeID) Addr() transport.Addr { return transport.Addr(n) }

// Behavior is an agent's application logic. Implementations that migrate
// between nodes must be gob-encodable (exported fields only) and registered
// with RegisterBehavior.
type Behavior interface {
	// HandleRequest processes one request from the agent's mailbox.
	// Requests are delivered strictly one at a time per agent.
	HandleRequest(ctx *Context, kind string, payload []byte) (any, error)
}

// Runner is implemented by active agents: Run is started on a dedicated
// goroutine when the agent launches at a node (both on creation and after
// each migration). A Run that calls Context.Move must return promptly
// afterwards; the platform resumes Run on the destination node.
type Runner interface {
	Run(ctx *Context) error
}

// ConcurrentBehavior is optionally implemented by behaviours that can serve
// some requests outside the serial mailbox. When the node delivers a request
// to such a behaviour it first offers it to HandleConcurrent on the
// delivering goroutine — concurrently with the mailbox and with any other
// in-flight HandleConcurrent calls. Returning handled=false routes the
// request through the mailbox as usual.
//
// Implementations must make HandleConcurrent safe against concurrent
// HandleRequest/Run activity on the same behaviour value; only requests that
// touch nothing but concurrency-safe state (e.g. a sharded read-mostly
// table) should be handled here. This is how a read-dominated agent escapes
// the one-request-at-a-time queueing model that the plain Behavior contract
// guarantees.
//
// The delivering goroutine is the connection's read loop for a request from
// another node and the caller's goroutine for one from this node — or, when
// the agent has a service time to charge, a goroutine of the request's own,
// which charges it. On a read loop nothing else arrives from that peer until
// HandleConcurrent returns, so it must neither block nor call out — what
// needs either is declined. A declined request is queued for the mailbox
// straight from where it was offered, with a copy of its payload, and served
// there by HandleRequest, so a declined offer must leave no trace. payload is
// valid only until HandleConcurrent returns.
type ConcurrentBehavior interface {
	Behavior
	HandleConcurrent(ctx *Context, kind string, payload []byte) (result any, handled bool, err error)
}

// LocalAnswerer is optionally implemented by behaviours that can answer some
// kinds for a caller on their own node without the codec: req is the caller's
// request value, resp the pointer it wants the answer stored through, and
// cctx the caller's context. AnswerLocal runs on the caller's goroutine,
// concurrently with everything else the behaviour does. It may block or call
// out, but only within cctx: once cctx ends it must return, with cctx's error
// if it has no answer. A declined offer leaves no trace, and what is stored
// through resp must share no mutable memory with the behaviour.
// handled=false sends the call down the ordinary path: through the node's
// peer, without the link but with the codec, to handleInline as a request
// from another node would go.
type LocalAnswerer interface {
	Behavior
	AnswerLocal(cctx context.Context, ctx *Context, kind string, req, resp any) (handled bool, err error)
}

// RegisterBehavior registers a migrating behaviour's concrete type with
// gob. Call it once per type, typically from the package that defines the
// behaviour, before any agent of that type migrates.
func RegisterBehavior(b Behavior) {
	gob.Register(b)
}

// Platform-level errors.
var (
	// ErrAgentExists is returned when launching an agent id already hosted
	// at the node.
	ErrAgentExists = errors.New("platform: agent already hosted")
	// ErrAgentNotFound is returned when a request targets an agent the
	// node does not host. Across the wire it is detected with
	// IsAgentNotFound.
	ErrAgentNotFound = errors.New("platform: agent not found")
	// ErrNodeClosed is returned by operations on a closed node.
	ErrNodeClosed = errors.New("platform: node closed")
	// ErrNotRunner is returned by Context.Move when called outside a Run
	// goroutine.
	ErrNotRunner = errors.New("platform: Move is only available to Runner agents")
)

// agentNotFoundPrefix marks ErrAgentNotFound across the wire, where error
// identity is lost.
const agentNotFoundPrefix = "agent-not-found: "

// agentGone is ErrAgentNotFound as the text a request is answered with.
type agentGone string

func (e agentGone) Error() string        { return agentNotFoundPrefix + string(e) }
func (e agentGone) Is(target error) bool { return target == ErrAgentNotFound }

// IsAgentNotFound reports whether an error (possibly a *transport.
// RemoteError from another node) indicates the target agent was not at the
// node.
func IsAgentNotFound(err error) bool {
	if errors.Is(err, ErrAgentNotFound) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, agentNotFoundPrefix)
}

// Node-level message kinds, handled by every node. Everything else a node
// serves is addressed to one of its agents: one envelope naming the agent, of
// the message's own kind, carrying the message.
const (
	kindAgentTransfer = "platform.agent-transfer"
	kindNodePing      = "platform.ping"
)

// agentTransfer carries a migrating agent's serialized state.
type agentTransfer struct {
	Agent         ids.AgentID
	ServiceTimeNS int64
	Behavior      behaviorBox
}

// behaviorBox wraps a Behavior so gob encodes the concrete registered type.
type behaviorBox struct {
	B Behavior
}

// Config configures a node.
type Config struct {
	// ID is the node's name and transport address.
	ID NodeID
	// Link is the transport carrying the node's traffic.
	Link transport.Link
	// Clock drives agent service times and residence timers. Defaults to
	// the real clock.
	Clock clock.Clock
	// Trace receives high-level events emitted by hosted agents through
	// Context.Emit. Nil disables tracing (the default).
	Trace *trace.Log
	// Tracer records causal spans for sampled requests flowing through the
	// node: every delivered agent request opens a server span under the
	// caller's wire context, and hosted behaviours may open finer spans via
	// Context. Nil disables span recording (the default).
	Tracer *trace.Recorder
	// Metrics receives the node's operational counters and gauges —
	// hosted-agent population, migrations, transfers — and instruments the
	// node's RPC peer. Nil disables metrics (the default).
	Metrics *metrics.Registry
	// Residence is the node's canonical residence handle: the group of
	// "everything currently hosted here", which co-resident agents may join
	// so a node migration is reported as one handle move (see
	// ids.NodeResidence and core's residence support). Defaults to
	// ids.NodeResidence(ID).
	Residence ids.ResidenceID
	// Durable is the node's snapshot/WAL store. Hosted behaviours reach it
	// through Context.Durable and append location updates before acking
	// them. Nil (the default) disables durability: the node runs purely in
	// memory, as before.
	Durable *snapshot.Store
}

// Node hosts agents and serves the platform's wire protocol.
type Node struct {
	id        NodeID
	clk       clock.Clock
	link      transport.Link
	peer      *transport.Peer
	trace     *trace.Log
	tracer    *trace.Recorder
	reg       *metrics.Registry
	residence ids.ResidenceID
	durable   *snapshot.Store

	// Handles cached off the hot paths; all are nil-safe no-ops when the
	// node has no registry.
	hostedGauge  *metrics.Gauge
	migrations   *metrics.Counter
	transfersIn  *metrics.Counter
	requests     *metrics.Counter
	fastRequests *metrics.Counter

	mu     sync.Mutex
	agents map[ids.AgentID]*hosted
	closed bool
	wg     sync.WaitGroup // run goroutines
}

// NewNode creates a node and binds it to its transport address.
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("platform: empty node id")
	}
	if cfg.Link == nil {
		return nil, errors.New("platform: nil link")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Residence == "" {
		cfg.Residence = ids.NodeResidence(string(cfg.ID))
	}
	n := &Node{
		id:        cfg.ID,
		clk:       cfg.Clock,
		link:      cfg.Link,
		trace:     cfg.Trace,
		tracer:    cfg.Tracer,
		reg:       cfg.Metrics,
		residence: cfg.Residence,
		durable:   cfg.Durable,
		agents:    make(map[ids.AgentID]*hosted),
	}
	if r := cfg.Metrics; r != nil {
		r.Describe("agentloc_platform_agents_hosted", "Agents currently hosted, by node.")
		r.Describe("agentloc_platform_migrations_total", "Successful outbound agent migrations, by node.")
		r.Describe("agentloc_platform_transfers_in_total", "Agents received via transfer, by node.")
		r.Describe("agentloc_platform_agent_requests_total", "Requests delivered into agent mailboxes, by node.")
		r.Describe("agentloc_platform_agent_requests_fastpath_total", "Requests served on the concurrent fast path, bypassing the mailbox, by node.")
	}
	node := string(cfg.ID)
	n.hostedGauge = cfg.Metrics.Gauge("agentloc_platform_agents_hosted", "node", node)
	n.migrations = cfg.Metrics.Counter("agentloc_platform_migrations_total", "node", node)
	n.transfersIn = cfg.Metrics.Counter("agentloc_platform_transfers_in_total", "node", node)
	n.requests = cfg.Metrics.Counter("agentloc_platform_agent_requests_total", "node", node)
	n.fastRequests = cfg.Metrics.Counter("agentloc_platform_agent_requests_fastpath_total", "node", node)
	peer, err := transport.NewServingPeer(cfg.Link, cfg.ID.Addr(), n.handleInline, cfg.Metrics)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", cfg.ID, err)
	}
	n.peer = peer
	return n, nil
}

// ID returns the node's name.
func (n *Node) ID() NodeID { return n.id }

// Clock returns the node's clock.
func (n *Node) Clock() clock.Clock { return n.clk }

// Residence returns the node's canonical residence handle, which hosted
// agents may join to be covered by node-level group moves.
func (n *Node) Residence() ids.ResidenceID { return n.residence }

// Trace returns the node's event log; nil when tracing is disabled.
func (n *Node) Trace() *trace.Log { return n.trace }

// Tracer returns the node's span recorder; nil (still a valid no-op sink)
// when span recording is disabled.
func (n *Node) Tracer() *trace.Recorder { return n.tracer }

// Metrics returns the node's metrics registry; nil when metrics are
// disabled. A nil registry still hands out usable no-op handles, so callers
// never need to guard.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Durable returns the node's snapshot/WAL store; nil when the node runs
// without durability.
func (n *Node) Durable() *snapshot.Store { return n.durable }

// LaunchOption tunes an agent launch.
type LaunchOption func(*hosted)

// WithServiceTime sets the simulated per-request processing time of the
// agent's mailbox. It models the paper's real Aglets message-handling cost;
// a busy agent with non-zero service time builds a queue.
func WithServiceTime(d time.Duration) LaunchOption {
	return func(h *hosted) { h.serviceTime = d }
}

// Launch hosts a new agent at this node and, if the behaviour implements
// Runner, starts its Run goroutine.
func (n *Node) Launch(id ids.AgentID, b Behavior, opts ...LaunchOption) error {
	if id == "" {
		return errors.New("platform: empty agent id")
	}
	if b == nil {
		return errors.New("platform: nil behavior")
	}
	h := newHosted(id, b, n)
	for _, opt := range opts {
		opt(h)
	}

	// The lock is held through start() so the hosted agent is never
	// visible (to Kill/Close) before its goroutine bookkeeping is set up.
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrNodeClosed
	}
	if _, ok := n.agents[id]; ok {
		return fmt.Errorf("%w: %s at %s", ErrAgentExists, id, n.id)
	}
	n.agents[id] = h
	n.hostedGauge.Inc()
	h.start(&n.wg)
	return nil
}

// Kill stops and removes an agent, waiting for its goroutines to exit.
// Killing an absent agent is an error.
func (n *Node) Kill(id ids.AgentID) error {
	n.mu.Lock()
	h, ok := n.agents[id]
	if ok {
		delete(n.agents, id)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s at %s", ErrAgentNotFound, id, n.id)
	}
	n.hostedGauge.Dec()
	h.stopAndWait()
	return nil
}

// Agents lists the ids of the agents currently hosted.
func (n *Node) Agents() []ids.AgentID { return n.AgentsWith(nil) }

// AgentsWith lists the ids of the hosted agents whose behaviour keep accepts,
// or of all of them if keep is nil. It runs keep under the node's lock: keep
// may look at a behaviour's type, fixed at launch, not at its state, which
// belongs to the agent's mailbox.
func (n *Node) AgentsWith(keep func(Behavior) bool) []ids.AgentID {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []ids.AgentID
	for id, h := range n.agents {
		if keep == nil || keep(h.behavior) {
			out = append(out, id)
		}
	}
	return out
}

// Hosts reports whether the node currently hosts the agent.
func (n *Node) Hosts(id ids.AgentID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.agents[id]
	return ok
}

// CallAgent sends a request to an agent hosted at the given node and waits
// for its response. It is the entry point for non-agent callers (clients,
// experiment drivers); agents use Context.Call.
func (n *Node) CallAgent(ctx context.Context, at NodeID, agent ids.AgentID, kind string, req, resp any) error {
	return n.Go(ctx, at, agent, kind, req, resp).Wait()
}

// Go is CallAgent split in two: it starts the call, and the returned
// Pending's Wait, which must be called exactly once, finishes it. A call to an
// agent on this node is first offered to its LocalAnswerer (answerLocal); the
// Pending then carries the outcome. Every other call goes through the node's
// peer (transport.Peer.Go): to another node as one envelope across the link,
// addressed to the agent, with req encoded by the link straight into the
// frame; to this node without the link, handed to handleInline as a request
// off the wire would be.
func (n *Node) Go(ctx context.Context, at NodeID, agent ids.AgentID, kind string, req, resp any) transport.Pending {
	if at == n.id {
		if answered, err := n.answerLocal(ctx, agent, kind, req, resp); answered {
			return transport.Settled(err)
		}
	}
	return n.peer.Go(ctx, at.Addr(), string(agent), kind, req, resp)
}

// Do runs f on the agent's mailbox goroutine between two of its requests, as
// HandleRequest runs, charged the service time like a request but with no
// span, request count, codec or call slot. It returns once f has run, or,
// with f never run, agent-not-found if the agent is absent or stops first or
// ctx's error if ctx ends first. Called from inside the agent's own mailbox,
// Do deadlocks until ctx ends: f is queued behind its caller.
func (n *Node) Do(ctx context.Context, agent ids.AgentID, f func(Behavior, *Context)) error {
	h, err := n.hostOf(agent)
	if err != nil {
		return err
	}
	return h.do(ctx, f)
}

// Outstanding reports how many of the node's calls to other nodes are waiting
// for a reply (transport.Peer.Outstanding).
func (n *Node) Outstanding() int { return n.peer.Outstanding() }

// LaunchAt launches an agent on a remote node. The behaviour must be
// registered with RegisterBehavior.
func (n *Node) LaunchAt(ctx context.Context, at NodeID, id ids.AgentID, b Behavior, serviceTime time.Duration) error {
	if at == n.id {
		return n.Launch(id, b, WithServiceTime(serviceTime))
	}
	xfer := agentTransfer{Agent: id, ServiceTimeNS: int64(serviceTime), Behavior: behaviorBox{B: b}}
	return n.peer.Call(ctx, at.Addr(), kindAgentTransfer, xfer, nil)
}

// Close stops all hosted agents and releases the node's transport binding.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	agents := make([]*hosted, 0, len(n.agents))
	for _, h := range n.agents {
		agents = append(agents, h)
	}
	n.agents = make(map[ids.AgentID]*hosted)
	n.mu.Unlock()
	n.hostedGauge.Add(-int64(len(agents)))

	// The peer closes between signalling the agents and waiting for them:
	// an agent's call nobody can answer any more — a Move to a node that went
	// away first — fails at the closing peer instead of holding the shutdown
	// for its timeout.
	for _, h := range agents {
		h.signalStop("stopped at")
	}
	n.peer.Close()
	stopAll(agents)
	n.wg.Wait()
	return nil
}

// stopAll stops the agents and waits for their goroutines. Every agent is
// signalled before any is waited on: an agent's background call to a
// co-hosted sibling (or to anything else) is abandoned at the signal, so the
// shutdown does not wait out one call timeout per agent in turn.
func stopAll(agents []*hosted) {
	for _, h := range agents {
		h.signalStop("stopped at")
	}
	for _, h := range agents {
		h.stopAndWait()
	}
}

// Crash kills the node abruptly, for fault injection: the transport binding
// drops immediately — in-flight and future calls fail as if the process
// died — and hosted agents are torn down in the background without the
// graceful drain of Close. Crash returns as soon as the node is unreachable
// and the requests its agents were serving are answered, not when the
// teardown finishes; crash a node mid-workload and its peers see failures at
// once — a request still queued in a mailbox is answered agent-not-found.
func (n *Node) Crash() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	agents := make([]*hosted, 0, len(n.agents))
	for _, h := range n.agents {
		agents = append(agents, h)
	}
	n.agents = make(map[ids.AgentID]*hosted)
	n.mu.Unlock()
	n.hostedGauge.Add(-int64(len(agents)))

	// The agents are signalled, which answers the requests queued in their
	// mailboxes, and the peer closed, which waits for the ones being served:
	// the crash is externally visible before any agent's goroutine has wound
	// down.
	for _, h := range agents {
		h.signalStop("stopped at")
	}
	n.peer.Close()
	go func() {
		stopAll(agents)
		n.wg.Wait()
	}()
}

// handleInline is the node's transport.InlineHandler: every request the node
// serves comes through here, on the connection's read loop or, from an agent
// or client on this node, on the caller's goroutine. A ping, and a request for
// an agent the node does not host, is answered at once; an agent transfer is
// decoded and launched on a goroutine of its own, with a copy of its frame. An
// agent request is offered to a ConcurrentBehavior's HandleConcurrent,
// answered at once when accepted; everything else is pushed onto the agent's
// mailbox with a copy of its frame, and the mailbox loop replies once the
// behaviour has served it (hosted.mailboxLoop) — no goroutine waits for it.
// The one exception is a ConcurrentBehavior with a service time, whose charge
// is a sleep a read loop must not take: the offer, the charge and the reply,
// or the push, run on a goroutine of the request's own. The request's server
// span opens here and ends as its answer is given.
func (n *Node) handleInline(ctx context.Context, r transport.Replier, agent, kind string, payload []byte) {
	if agent == "" {
		switch kind {
		case kindNodePing:
			r.Reply(nil, nil)
		case kindAgentTransfer:
			payload = bytes.Clone(payload)
			go func() { r.Reply(nil, n.acceptTransfer(payload)) }()
		default:
			r.Reply(nil, fmt.Errorf("node %s: unknown message kind %q", n.id, kind))
		}
		return
	}
	h, err := n.hostOf(ids.AgentID(agent))
	if err != nil {
		r.Reply(nil, err)
		return
	}
	n.requests.Inc()
	sc := trace.FromContext(ctx)
	sp := n.tracer.StartSpan(sc, "server", kind)
	if sp != nil {
		sc = sp.Context()
	}
	w := work{kind: kind, payload: payload, span: sc, reply: r, sp: sp}
	cb, concurrent := h.behavior.(ConcurrentBehavior)
	if concurrent && h.serviceTime > 0 {
		w.ownFrame()
		go h.offerOrEnqueue(cb, w)
		return
	}
	if !concurrent || !h.offer(cb, &w) {
		w.ownFrame()
		h.enqueue(w)
	}
}

// answerLocal offers a same-node call to the target's AnswerLocal, if it has
// one, with the accounting a delivered request gets: the request counters, a
// server span for sampled requests, the service time charged on the caller's
// goroutine within ctx. A call on a closed node is answered too, with
// ErrNodeClosed. answered=false means nothing happened and the call takes the
// ordinary path. An error has the shape the ordinary path gives it: the
// behaviour's is a *transport.RemoteError, an expired ctx's unwraps to
// ctx.Err().
func (n *Node) answerLocal(ctx context.Context, agent ids.AgentID, kind string, req, resp any) (answered bool, err error) {
	n.mu.Lock()
	h, ok := n.agents[agent]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return true, fmt.Errorf("call %s@%s %s: %w", agent, n.id, kind, ErrNodeClosed)
	}
	if !ok || resp == nil {
		return false, nil
	}
	la, ok := h.behavior.(LocalAnswerer)
	if !ok || h.stopped.Load() {
		return false, nil
	}
	sc := trace.FromContext(ctx)
	sp := n.tracer.StartSpan(sc, "server", kind)
	if sp != nil {
		sc = sp.Context()
	}
	handled, err := la.AnswerLocal(ctx, h.contextFor(sc), kind, req, resp)
	if !handled {
		return false, nil // sp is dropped unrecorded
	}
	n.requests.Inc()
	n.fastRequests.Inc()
	if err == nil {
		err = h.chargeServiceTime(ctx)
	}
	sp.End(err)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		err = fmt.Errorf("call %s@%s %s: %w", agent, n.id, kind, ctx.Err())
	case !errors.Is(err, ErrNodeClosed):
		err = &transport.RemoteError{Kind: kind, To: n.id.Addr(), Msg: err.Error()}
	}
	return true, err
}

// acceptTransfer launches the agent a transfer carries.
func (n *Node) acceptTransfer(payload []byte) error {
	var xfer agentTransfer
	if err := transport.Decode(payload, &xfer); err != nil {
		return fmt.Errorf("node %s: bad agent transfer: %w", n.id, err)
	}
	if xfer.Behavior.B == nil {
		return fmt.Errorf("node %s: transfer of %s carried no behavior", n.id, xfer.Agent)
	}
	err := n.Launch(xfer.Agent, xfer.Behavior.B, WithServiceTime(time.Duration(xfer.ServiceTimeNS)))
	if err == nil {
		n.transfersIn.Inc()
	}
	return err
}

// hostOf returns the agent hosted under id, or the agent-not-found error a
// request for it is answered with — on a closed node too, which hosts
// nothing: only the error's text reaches the caller.
func (n *Node) hostOf(id ids.AgentID) (*hosted, error) {
	n.mu.Lock()
	h, ok := n.agents[id]
	n.mu.Unlock()
	if !ok {
		return nil, agentGone(fmt.Sprintf("%s not at %s", id, n.id))
	}
	return h, nil
}
