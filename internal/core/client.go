package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// Client-side errors.
var (
	// ErrNotRegistered is returned by an operation whose responsible IAgent
	// answers that it has no entry for the agent.
	ErrNotRegistered = errors.New("core: agent not registered with the location service")
	// ErrRetriesExhausted is returned when the refresh-and-retry loop of
	// paper §4.3 fails to converge (persistent network trouble).
	ErrRetriesExhausted = errors.New("core: retries exhausted")
)

// maxProtocolRetries bounds the §4.3 refresh-and-retry loop. Each retry
// follows a hash refresh, so more than a handful indicates real trouble,
// not staleness.
const maxProtocolRetries = 8

// backoffDelay computes the pause before retry attempt n: a full-jitter
// draw from [1, base·2^(n-1)], capped at the configured maximum. Transient
// windows (a leaf mid-takeover, a rehash mid-handoff)
// need real time to close, not just another immediate attempt — and a
// rehash stales every cached copy at once, so without jitter the whole
// client population would retry in lockstep and re-overload the very
// IAgent whose overload triggered the rehash.
func (c *Client) backoffDelay(attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	base := c.cfg.RetryBackoffBase
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	max := c.cfg.RetryBackoffMax
	if max <= 0 {
		max = 50 * base
	}
	if max < base {
		max = base
	}
	window := base
	for i := 1; i < attempt && window < max; i++ {
		window *= 2
	}
	if window > max {
		window = max
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	// Never zero: a zero draw would degenerate into an immediate retry.
	return 1 + time.Duration(c.rng.Int63n(int64(window)))
}

// backoff pauses before retry attempt n (attempt 0 is free), through the
// injected clock so fake-clock tests drive retries deterministically. The
// pause is traced as a "backoff" span, so latency attribution can separate
// time spent waiting out staleness from time spent on the wire.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.backoffDelay(attempt)
	if d <= 0 {
		return nil
	}
	sp := c.tracer.StartSpan(trace.FromContext(ctx), "client", "backoff")
	sp.Annotate("attempt", strconv.Itoa(attempt))
	select {
	case <-c.clk.After(d):
		sp.End(nil)
		return nil
	case <-ctx.Done():
		sp.End(ctx.Err())
		return ctx.Err()
	}
}

// Caller abstracts who is speaking to the location service: a hosted agent
// (through its platform.Context) or an external process (through a
// platform.Node).
type Caller interface {
	// Go sends a request to an agent at a node; the Pending's Wait, called
	// exactly once, collects the answer (platform.Node.Go).
	Go(ctx context.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) transport.Pending
	// LocalNode is the caller's own node — where its LHAgent lives.
	LocalNode() platform.NodeID
}

// NodeCaller adapts a platform.Node to Caller.
type NodeCaller struct {
	N *platform.Node
}

var _ Caller = NodeCaller{}

// Go implements Caller.
func (c NodeCaller) Go(ctx context.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) transport.Pending {
	return c.N.Go(ctx, at, agent, kind, req, resp)
}

// LocalNode implements Caller.
func (c NodeCaller) LocalNode() platform.NodeID { return c.N.ID() }

// Metrics exposes the node's registry so clients built on this caller are
// instrumented automatically.
func (c NodeCaller) Metrics() *metrics.Registry { return c.N.Metrics() }

// Tracer exposes the node's span recorder so clients built on this caller
// trace their operations automatically.
func (c NodeCaller) Tracer() *trace.Recorder { return c.N.Tracer() }

// CtxCaller adapts an agent's platform.Context to Caller.
type CtxCaller struct {
	Ctx *platform.Context
}

var _ Caller = CtxCaller{}

// Go implements Caller.
func (c CtxCaller) Go(ctx context.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) transport.Pending {
	return c.Ctx.Go(ctx, at, agent, kind, req, resp)
}

// LocalNode implements Caller.
func (c CtxCaller) LocalNode() platform.NodeID { return c.Ctx.Node() }

// Metrics exposes the hosting node's registry so clients built on this
// caller are instrumented automatically.
func (c CtxCaller) Metrics() *metrics.Registry { return c.Ctx.Metrics() }

// Tracer exposes the hosting node's span recorder so clients built on this
// caller trace their operations automatically.
func (c CtxCaller) Tracer() *trace.Recorder { return c.Ctx.Tracer() }

// CallerRegistry extracts the metrics registry behind a Caller, when it
// offers one. Callers advertise it through an optional Metrics method so the
// Caller interface itself stays minimal. Returns nil (a valid no-op
// registry) otherwise.
func CallerRegistry(c Caller) *metrics.Registry {
	if p, ok := c.(interface{ Metrics() *metrics.Registry }); ok {
		return p.Metrics()
	}
	return nil
}

// CallerTracer extracts the span recorder behind a Caller, when it offers
// one — the tracing analogue of CallerRegistry. Returns nil (a valid no-op
// recorder) otherwise.
func CallerTracer(c Caller) *trace.Recorder {
	if p, ok := c.(interface{ Tracer() *trace.Recorder }); ok {
		return p.Tracer()
	}
	return nil
}

// Assignment caches which IAgent serves an agent and where that IAgent is.
// Mobile agents keep their own Assignment in their migrating state so they
// do not ask the LHAgent before every update (paper §2.3: the agent learns
// its IAgent at creation).
type Assignment struct {
	IAgent      ids.AgentID
	Node        platform.NodeID
	HashVersion uint64
}

// Zero reports whether the assignment is unset.
func (a Assignment) Zero() bool { return a.IAgent == "" }

// Client implements the client side of the location protocol: whois at the
// local LHAgent, direct IAgent calls, and the stale-copy refresh-and-retry
// loop of paper §4.3.
type Client struct {
	caller Caller
	cfg    Config
	clk    clock.Clock
	// local is the caller's node and lhagent the id of the LHAgent there;
	// neither changes while the caller is valid.
	local   platform.NodeID
	lhagent ids.AgentID

	// rng draws the retry jitter; guarded because one Client serves
	// concurrent operations.
	rngMu sync.Mutex
	rng   *rand.Rand

	// ops is the per-operation table, built in NewClient. batched is an
	// update the batcher carries. Discover scatters outside the §4.3 loop and
	// uses only its retry counter.
	ops struct {
		locate, register, update, batched, deregister, deposit, checkin, discover clientOp
	}
	// hops observes the protocol RPC rounds each Locate needed (cache hits
	// observe zero); nil without metrics.
	hops *metrics.Histogram

	// tracer records client-tier spans; nil (a valid no-op) when the caller
	// offers no recorder.
	tracer *trace.Recorder

	// cache answers Locate without an RPC while entries are version-fresh
	// and within TTL; nil (the default) disables it. See loccache.go for
	// the coherence rules.
	cache *locCache

	// batcher, when set, carries MoveNotify traffic as coalesced
	// one-RPC-per-peer-per-tick batches. See batch.go.
	batcher *UpdateBatcher

	// resFallback counts residence moves that degraded to per-member bound
	// updates (stale grouping after a rehash or takeover); nil without
	// metrics.
	resFallback *metrics.Counter
}

// clientOp is one operation's row in Client.ops: its op span name and
// retries label, the child span around its request, and its instruments —
// nil (valid no-ops) without a registry.
type clientOp struct {
	name, child string
	lat         *metrics.Histogram
	retries     *metrics.Counter
}

// NewClient builds a Client for the given caller. When the caller exposes a
// metrics registry (NodeCaller and CtxCaller do), every operation observes
// its end-to-end latency — whois, stale-refresh rounds and retries included
// — and each extra protocol round counts into
// agentloc_core_client_retries_total{op}.
func NewClient(caller Caller, cfg Config) *Client {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	reg := CallerRegistry(caller)
	c := &Client{
		caller: caller,
		cfg:    cfg,
		clk:    clk,
		rng:    rand.New(rand.NewSource(rand.Int63())),
		cache:  newLocCache(cfg, clk, reg),
		tracer: CallerTracer(caller),
	}
	if caller != nil {
		c.local = caller.LocalNode()
		c.lhagent = LHAgentID(c.local)
	}
	reg.Describe("agentloc_core_client_retries_total", "Extra protocol rounds of the §4.3 refresh-and-retry loop, by operation.")
	// op builds a row; an op whose successes method times has a latency
	// family of its own.
	op := func(name, child, method string) clientOp {
		o := clientOp{name: name, child: child, retries: reg.Counter("agentloc_core_client_retries_total", "op", name)}
		if method != "" {
			family := "agentloc_core_" + name + "_latency_seconds"
			reg.Describe(family, "End-to-end latency of successful "+method+" operations.")
			o.lat = reg.Histogram(family, metrics.DefLatencyBuckets)
		}
		return o
	}
	c.ops.locate = op("locate", "iagent.locate", "Locate")
	c.ops.register = op("register", "iagent.register", "Register")
	c.ops.update = op("update", "iagent.update", "MoveNotify")
	c.ops.batched = op("update", "batch.wait", "MoveNotify")
	c.ops.deregister = op("deregister", "iagent.deregister", "Deregister")
	c.ops.deposit = op("deposit", "iagent.deposit", "Deposit")
	c.ops.checkin = op("checkin", "iagent.checkin", "CheckIn")
	c.ops.discover = op("discover", "", "")
	reg.Describe("agentloc_locate_hops", "Protocol RPC rounds per Locate operation; cache hits observe zero.")
	c.hops = reg.Histogram("agentloc_locate_hops", metrics.CountBuckets)
	reg.Describe("agentloc_core_residence_fallback_total", "Residence moves degraded to per-member bound updates (stale grouping).")
	c.resFallback = reg.Counter("agentloc_core_residence_fallback_total")
	return c
}

// call issues one protocol RPC, bounded by cfg.callTimeout on top of the
// caller's context — a lost reply costs one timeout and a retry instead of
// hanging a deadline-less caller forever, CallTimeout set or not. The
// mechanism's agents bound their internal calls the same way (callWithin).
// The bound travels as a pooled transport.DeadlineContext: the transport and a
// mailbox wait arm reusable timers from it, and whoever else selects on Done
// (a service-time charge, a dial) still sees it fire. req and resp cross the
// Caller as interface values, so a single-agent operation's calls pass
// pointers into a pooled callFrame, and allocate nothing the caller keeps.
func (c *Client) call(ctx context.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) error {
	countRPC(ctx)
	return callWithin(ctx, c.cfg.callTimeout(), c.caller, at, agent, kind, req, resp)
}

// ask makes one read of the local LHAgent. The LHAgent answers on this
// goroutine, after fetching a copy when its own is missing or too old, which
// costs up to one cfg.callTimeout per HAgent it asks; the read is bounded by as
// many on top of ctx, so a primary HAgent that does not answer leaves it time
// to reach a fallback.
func (c *Client) ask(ctx context.Context, kind string, req, resp any) error {
	countRPC(ctx)
	hagents := time.Duration(1 + len(c.cfg.HAgentFallbacks))
	return callWithin(ctx, hagents*c.cfg.callTimeout(), c.caller, c.local, c.lhagent, kind, req, resp)
}

// leg is one leaf's call in a fan-out: its span, and how it ended.
type leg struct {
	sp  *trace.ActiveSpan
	err error
}

// fanOut sends kind to every leaf as one fan-out under cfg.callTimeout
// (fanOut), each leg in a child span named span that ends as the leg lands.
// req gives leaf i's request and may annotate its span, resp where its answer
// goes. legs, index-aligned with leaves, hears how each leg ended.
func (c *Client) fanOut(ctx context.Context, span, kind string, leaves []LeafRef, legs []leg, req func(i int, sp *trace.ActiveSpan) any, resp func(i int) any) {
	fanOut(ctx, c.cfg.callTimeout(), c.local, len(leaves), func(i int) platform.NodeID { return leaves[i].Node },
		func(ctx context.Context, i int) transport.Pending {
			sp, cctx := c.childSpan(ctx, span)
			sp.Annotate("leaf", string(leaves[i].IAgent))
			legs[i].sp = sp
			countRPC(cctx)
			return c.caller.Go(cctx, leaves[i].Node, leaves[i].IAgent, kind, req(i, sp), resp(i))
		},
		func(i int, err error) {
			legs[i].err = err
			legs[i].sp.End(err)
		})
}

// rpcCountKey carries the operation's RPC counter through the call chain, so
// every protocol round — whois, IAgent calls, refreshes, retries — counts
// toward the op no matter which helper issued it. Every call of an operation
// is issued from the goroutine running it, fan-outs included, so the counter
// is a plain integer.
type rpcCountKey struct{}

// countRPC counts one protocol RPC toward ctx's operation, if it counts them.
func countRPC(ctx context.Context) {
	if n, _ := ctx.Value(rpcCountKey{}).(*int64); n != nil {
		*n++
	}
}

// withRPCCount returns a context carrying a fresh RPC counter for one
// operation, and the counter, when read says something will read the count
// — the operation's span or the hops histogram. Otherwise it returns ctx and
// a nil counter, allocating nothing. An enclosing operation's counter cannot
// leak in that way: only a traced operation encloses others with a counter,
// and what it encloses is traced too, its span a child of the enclosing one's.
func withRPCCount(ctx context.Context, read bool) (context.Context, *int64) {
	if !read {
		return ctx, nil
	}
	n := new(int64)
	return context.WithValue(ctx, rpcCountKey{}, n), n
}

// startOp opens the span covering one whole client operation and returns a
// context that carries it plus the RPC counter, nil when the operation is
// untraced. The caller must end both with endOp and should pass the returned
// context to every protocol call of the operation.
func (c *Client) startOp(ctx context.Context, name string) (*trace.ActiveSpan, context.Context, *int64) {
	sp, ctx := c.opSpan(ctx, name)
	ctx, n := withRPCCount(ctx, sp != nil)
	return sp, ctx, n
}

// opSpan opens the span covering one whole client operation and returns a
// context that carries it. When ctx already belongs to a trace — an agent
// serving a traced request drives this client — the op joins that trace as a
// child; otherwise it starts a new root, subject to the recorder's sampling.
// Untraced, it allocates nothing.
func (c *Client) opSpan(ctx context.Context, name string) (*trace.ActiveSpan, context.Context) {
	var sp *trace.ActiveSpan
	if parent := trace.FromContext(ctx); parent.Valid() {
		sp = c.tracer.StartSpan(parent, "client", name)
	} else {
		sp = c.tracer.StartRoot("client", name)
	}
	if sp != nil {
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	return sp, ctx
}

// endOp closes an operation span with its RPC count. Both may be nil.
func endOp(sp *trace.ActiveSpan, rpcs *int64, err error) {
	if rpcs != nil {
		sp.Annotate("rpcs", strconv.FormatInt(*rpcs, 10))
	}
	sp.End(err)
}

// childSpan opens a child span of ctx's trace context, returning a context
// parented under it so downstream RPCs nest correctly. Untraced contexts
// yield a nil (no-op) span and the context unchanged.
func (c *Client) childSpan(ctx context.Context, name string) (*trace.ActiveSpan, context.Context) {
	sp := c.tracer.StartSpan(trace.FromContext(ctx), "client", name)
	if sp != nil {
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	return sp, ctx
}

// callFrame is where a single-agent operation's call keeps its request and
// response: its whois, its refresh or its request to the IAgent. The Caller
// takes them as interface values, so values of the call's own would each move
// to the heap; a pooled frame is already there. A call takes a frame for
// itself alone, not for its whole operation, so an update waiting in the
// batcher holds none, and gives it back cleared once nothing holds its values:
// a call has encoded its request before Go returns and decoded its reply
// before Wait returns.
type callFrame struct {
	whois      WhoisReq
	assigned   WhoisResp
	refresh    RefreshReq
	refreshed  RefreshResp
	locate     LocateReq
	located    LocateResp
	update     UpdateReq
	deregister DeregisterReq
	ack        Ack
}

var framePool = sync.Pool{New: func() any { return new(callFrame) }}

func getFrame() *callFrame { return framePool.Get().(*callFrame) }

func (f *callFrame) release() {
	*f = callFrame{}
	framePool.Put(f)
}

// Whois asks the local LHAgent which IAgent serves the target.
func (c *Client) Whois(ctx context.Context, target ids.AgentID) (Assignment, error) {
	sp, ctx := c.childSpan(ctx, "whois")
	f := getFrame()
	defer f.release()
	f.whois = WhoisReq{Target: target}
	if err := c.ask(ctx, KindWhois, &f.whois, &f.assigned); err != nil {
		sp.End(err)
		return Assignment{}, fmt.Errorf("whois %s: %w", target, err)
	}
	resp := f.assigned
	sp.Annotate("iagent", string(resp.IAgent))
	sp.End(nil)
	c.cache.fence(resp.HashVersion)
	return Assignment{IAgent: resp.IAgent, Node: resp.Node, HashVersion: resp.HashVersion}, nil
}

// Register announces a newly created agent's location (the caller's node)
// and returns the assignment the agent should cache.
func (c *Client) Register(ctx context.Context, self ids.AgentID) (Assignment, error) {
	return c.report(ctx, KindRegister, self, "", nil, c.local, Assignment{})
}

// RegisterWithCapabilities is Register with an advertised capability set:
// the responsible IAgent records the location and indexes the tags in the
// same round, so the agent is discoverable the moment it is locatable.
func (c *Client) RegisterWithCapabilities(ctx context.Context, self ids.AgentID, caps []string) (Assignment, error) {
	return c.report(ctx, KindRegister, self, "", caps, c.local, Assignment{})
}

// Advertise replaces the agent's capability set at its responsible IAgent
// (re-reporting the caller's node as its location). An empty caps set is
// rejected by the protocol's "empty means no change" rule — withdrawing all
// capabilities takes a Deregister + Register.
func (c *Client) Advertise(ctx context.Context, self ids.AgentID, caps []string, cached Assignment) (Assignment, error) {
	return c.report(ctx, KindUpdate, self, "", caps, c.local, cached)
}

// MoveNotify informs the agent's IAgent that it now resides at the
// caller's node. The cached assignment (possibly zero) is used first; the
// returned assignment reflects any rehashing discovered on the way. A plain
// MoveNotify also clears any residence binding the agent had — an
// individually-reported move means it left its group.
func (c *Client) MoveNotify(ctx context.Context, self ids.AgentID, cached Assignment) (Assignment, error) {
	return c.report(ctx, KindUpdate, self, "", nil, c.local, cached)
}

// MoveNotifyTo is MoveNotify reporting an explicit destination node instead
// of the caller's own — for reporters (benchmarks, relocation services)
// announcing a move on an agent's behalf. Like MoveNotify it clears any
// residence binding the agent had.
func (c *Client) MoveNotifyTo(ctx context.Context, self ids.AgentID, node platform.NodeID, cached Assignment) (Assignment, error) {
	return c.report(ctx, KindUpdate, self, "", nil, node, cached)
}

// MoveNotifyBound is MoveNotify with a residence binding: besides recording
// the agent at the caller's node, the IAgent binds it to the handle so a
// later ResidenceGroup.MoveTo covers it with one RPC.
func (c *Client) MoveNotifyBound(ctx context.Context, self ids.AgentID, res ids.ResidenceID, cached Assignment) (Assignment, error) {
	return c.report(ctx, KindUpdate, self, res, nil, c.local, cached)
}

// Deregister removes the agent's entry (agent disposal).
func (c *Client) Deregister(ctx context.Context, self ids.AgentID, cached Assignment) error {
	sp, ctx, rpcs := c.startOp(ctx, "deregister")
	_, err := c.run(ctx, &c.ops.deregister, self, cached, func(ctx context.Context, assign Assignment) (Status, uint64, error) {
		f := getFrame()
		defer f.release()
		f.deregister = DeregisterReq{Agent: self}
		err := c.call(ctx, assign.Node, assign.IAgent, KindDeregister, &f.deregister, &f.ack)
		return f.ack.Status, f.ack.HashVersion, err
	})
	if err == nil {
		// Read your own writes: the next Locate asks the server.
		c.cache.invalidate(self)
	}
	endOp(sp, rpcs, err)
	return err
}

// Locate finds the current node of the target agent: the local cache first
// (when enabled — a fresh, version-fenced entry answers with zero RPCs),
// then the §4.3 loop, whose answer it caches under the version that vouched
// for it. A hit makes no RPC, so it opens only the op span and allocates
// nothing untraced.
func (c *Client) Locate(ctx context.Context, target ids.AgentID) (platform.NodeID, error) {
	sp, ctx := c.opSpan(ctx, "locate")
	if node, ok := c.cache.get(target); ok {
		sp.Annotate("cache", "hit")
		sp.Annotate("rpcs", "0")
		sp.End(nil)
		c.hops.Observe(0)
		return node, nil
	}
	sp.Annotate("cache", "miss")
	ctx, rpcs := withRPCCount(ctx, sp != nil || c.hops != nil)
	var node platform.NodeID
	assign, err := c.run(ctx, &c.ops.locate, target, Assignment{}, func(ctx context.Context, assign Assignment) (Status, uint64, error) {
		f := getFrame()
		defer f.release()
		f.locate = LocateReq{Agent: target}
		err := c.call(ctx, assign.Node, assign.IAgent, KindLocate, &f.locate, &f.located)
		node = f.located.Node
		return f.located.Status, f.located.HashVersion, err
	})
	endOp(sp, rpcs, err)
	if err != nil {
		return "", err
	}
	c.cache.put(target, node, assign.HashVersion)
	if rpcs != nil {
		c.hops.Observe(float64(*rpcs))
	}
	return node, nil
}

// LocateBatch resolves the locations of several agents with as few RPCs as
// the hash function allows: cache hits answer locally, one whois-batch at the
// local LHAgent assigns the remaining targets to their IAgents at one hash
// version, and each IAgent's share travels as one KindLocateBatch frame, the
// frames in flight together. The result maps each successfully located agent
// to its node; unregistered agents are simply absent, and a target named
// twice is looked up twice, to the same answer. Agents whose batched answer
// proves the local hash copy stale fall back to the singleton Locate path,
// which owns the §4.3 refresh-and-retry loop. The map is all the batch
// allocates: everything else lives in a pooled batchCall.
func (c *Client) LocateBatch(ctx context.Context, targets []ids.AgentID) (map[ids.AgentID]platform.NodeID, error) {
	sp, ctx, rpcs := c.startOp(ctx, "locate-batch")
	out := make(map[ids.AgentID]platform.NodeID, len(targets))
	f := batchPool.Get().(*batchCall)
	defer f.release()
	for _, t := range targets {
		if node, ok := c.cache.get(t); ok {
			out[t] = node
			continue
		}
		f.misses = append(f.misses, t)
	}
	if len(f.misses) == 0 {
		endOp(sp, rpcs, nil)
		return out, nil
	}

	if err := c.whoisBatch(ctx, f); err != nil {
		endOp(sp, rpcs, err)
		return nil, err
	}
	who := &f.who
	// Counting sort by owning leaf: leaf g's share is agents[at[g]:at[g+1]].
	f.at = sized(f.at, len(who.Leaves)+1)
	for _, o := range who.Owner {
		f.at[o+1]++
	}
	for g := range who.Leaves {
		if f.at[g+1] > 0 {
			f.groups = append(f.groups, g) // the leaves with a share, in leaf order
		}
		f.at[g+1] += f.at[g]
	}
	f.agents = sized(f.agents, len(f.misses))
	f.fill = append(f.fill[:0], f.at...)
	for i, o := range who.Owner {
		f.agents[f.fill[o]] = f.misses[i]
		f.fill[o]++
	}

	// One frame per leaf with a share, all in flight together.
	n := len(f.groups)
	f.leaves, f.reqs, f.legs = sized(f.leaves, n), sized(f.reqs, n), sized(f.legs, n)
	f.resps = slices.Grow(f.resps[:0], n)[:n]
	for k, g := range f.groups {
		f.leaves[k] = who.Leaves[g]
		f.reqs[k].Agents = f.agents[f.at[g]:f.at[g+1]]
		f.resps[k].Results = f.resps[k].Results[:0]
	}
	c.fanOut(ctx, "iagent.locate-batch", KindLocateBatch, f.leaves, f.legs, func(k int, sp *trace.ActiveSpan) any {
		if sp != nil {
			sp.Annotate("agents", strconv.Itoa(len(f.reqs[k].Agents)))
		}
		return &f.reqs[k]
	}, func(k int) any { return &f.resps[k] })

	// Fold the answers in leaf order, once every frame is back.
	var retry []ids.AgentID
	for k, share := range f.reqs {
		resp := f.resps[k]
		if f.legs[k].err != nil || len(resp.Results) != len(share.Agents) {
			// Transport trouble or a malformed reply; the singleton path
			// carries the retry logic. Whatever the cache holds for these
			// agents is unproven now — a concurrent op may have cached a
			// location this very reply was about to contradict — so drop it
			// rather than let a partial failure leave stale entries behind.
			for _, a := range share.Agents {
				c.cache.invalidate(a)
			}
			retry = append(retry, share.Agents...)
			continue
		}
		for i, r := range resp.Results {
			a := share.Agents[i]
			switch r.Status {
			case StatusOK:
				c.cache.fence(r.HashVersion)
				c.cache.put(a, r.Node, max(who.HashVersion, r.HashVersion))
				out[a] = r.Node
			case StatusUnknownAgent:
				c.cache.invalidate(a)
			default:
				// NotResponsible: our copy went stale for this slice of the
				// id space. Fence the cache at the leaf's version — fence
				// only ever raises, so one leaf answering with an older
				// version cannot roll the fence back — invalidate the now
				// unproven entries, and refresh-and-retry one by one.
				c.cache.fence(r.HashVersion)
				c.cache.invalidate(a)
				retry = append(retry, a)
			}
		}
	}
	var firstErr error
	for _, t := range retry {
		node, err := c.Locate(ctx, t)
		switch {
		case err == nil:
			out[t] = node
		case errors.Is(err, ErrNotRegistered):
			// Absent from the result, like the batched unknown-agent case.
		case firstErr == nil:
			firstErr = err
		}
	}
	endOp(sp, rpcs, firstErr)
	return out, firstErr
}

// whoisBatch asks the local LHAgent which IAgents serve f's misses, all
// resolved against one hash version, into f.who.
func (c *Client) whoisBatch(ctx context.Context, f *batchCall) error {
	sp, ctx := c.childSpan(ctx, "whois-batch")
	f.ask.Targets = f.misses
	err := c.ask(ctx, KindWhoisBatch, &f.ask, &f.who)
	if err == nil && len(f.who.Owner) != len(f.misses) {
		err = fmt.Errorf("%w: %d owners for %d targets", wire.ErrCorrupt, len(f.who.Owner), len(f.misses))
	}
	sp.End(err)
	if err != nil {
		return fmt.Errorf("whois batch of %d: %w", len(f.misses), err)
	}
	c.cache.fence(f.who.HashVersion)
	return nil
}

// batchCall is where a LocateBatch keeps everything but its result: the
// targets the cache missed, the whois-batch's request and answer, the counting
// sort that groups the misses by leaf, and each leg's leaf, request, answer
// and outcome. Like a callFrame it is pooled, taken for one batch and given
// back cleared, with the room it grew to; the leaf list is the LHAgent's
// installed copy's, and each leg decodes into the room its answer had.
type batchCall struct {
	misses, agents   []ids.AgentID
	ask              WhoisBatchReq
	who              WhoisBatchResp
	at, fill, groups []int
	leaves           []LeafRef
	reqs             []LocateBatchReq
	resps            []LocateBatchResp
	legs             []leg
}

var batchPool = sync.Pool{New: func() any { return new(batchCall) }}

// maxPooledBatch bounds the targets a pooled batchCall keeps room for: a rare
// huge batch is not worth holding on to.
const maxPooledBatch = 1 << 12

func (f *batchCall) release() {
	if cap(f.misses) > maxPooledBatch {
		return
	}
	f.misses, f.agents = reuse(f.misses), reuse(f.agents)
	f.ask = WhoisBatchReq{}
	f.who = WhoisBatchResp{Owner: f.who.Owner[:0]}
	f.at, f.fill, f.groups = f.at[:0], f.fill[:0], f.groups[:0]
	f.leaves, f.reqs, f.legs = reuse(f.leaves), reuse(f.reqs), reuse(f.legs)
	f.resps = f.resps[:0] // the results hold statuses and interned node ids
	batchPool.Put(f)
}

// sized returns s at length n, zeroed, in the room s has when it has enough.
func sized[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// reuse empties s for another call, clearing all its room so that nothing it
// referenced stays reachable from a pool.
func reuse[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// report serves register, update and advertise: it reports the agent at
// node, through the batcher for an update when one is attached. An
// acknowledged report drops the reporting client's cache entry for the
// agent, so its next Locate asks the server, which holds this report (read
// your own writes). It invalidates rather than puts, so reporting for many
// agents does not fill the cache with agents this client never looks up.
func (c *Client) report(ctx context.Context, kind string, self ids.AgentID, res ids.ResidenceID, caps []string, node platform.NodeID, cached Assignment) (Assignment, error) {
	op := &c.ops.register
	if kind == KindUpdate {
		op = &c.ops.update
		if c.batcher != nil {
			op = &c.ops.batched
		}
	}
	sp, ctx, rpcs := c.startOp(ctx, op.name)
	assign, err := c.run(ctx, op, self, cached, func(ctx context.Context, assign Assignment) (Status, uint64, error) {
		req := UpdateReq{Agent: self, Node: node, Residence: res, Capabilities: caps}
		if op == &c.ops.batched {
			// The batch.wait span covers the full queue-to-ack delay: time
			// parked in the outgoing batch plus the coalesced RPC's round trip.
			ack, err := c.batcher.Do(ctx, assign, req)
			return ack.Status, ack.HashVersion, err
		}
		f := getFrame()
		defer f.release()
		f.update = req
		err := c.call(ctx, assign.Node, assign.IAgent, kind, &f.update, &f.ack)
		return f.ack.Status, f.ack.HashVersion, err
	})
	if err == nil {
		c.cache.invalidate(self)
	}
	endOp(sp, rpcs, err)
	return assign, err
}

// run is the one §4.3 loop every single-agent operation goes through (paper
// §2.3): whois at the local LHAgent while the assignment is unset, one
// request to the responsible IAgent, and on a stale or failed answer a
// refresh of the local hash copy, a backoff and a retry, at most
// maxProtocolRetries rounds. send issues the operation's request to the
// assigned IAgent and returns the reply's status and hash version with the
// call's error; it runs in the attempt's child span. An unknown-agent answer
// is ErrNotRegistered, and a mapping proved stale drops the agent's cache
// entry before the retry. On success run
// observes the operation's latency and returns the assignment that
// answered, raised to the IAgent's version.
func (c *Client) run(ctx context.Context, op *clientOp, agent ids.AgentID, assign Assignment, send func(context.Context, Assignment) (Status, uint64, error)) (Assignment, error) {
	start := time.Now()
	for attempt := 0; attempt < maxProtocolRetries; attempt++ {
		if attempt > 0 {
			op.retries.Inc()
		}
		if err := c.backoff(ctx, attempt); err != nil {
			return Assignment{}, err
		}
		if assign.Zero() {
			var err error
			if assign, err = c.Whois(ctx, agent); err != nil {
				return Assignment{}, err
			}
		}
		csp, cctx := c.childSpan(ctx, op.child)
		if attempt > 0 {
			csp.Annotate("attempt", strconv.Itoa(attempt))
		}
		status, version, err := send(cctx, assign)
		csp.End(err)
		if err == nil && status == StatusUnknownAgent {
			c.cache.invalidate(agent)
			return Assignment{}, fmt.Errorf("%s %s: %w", op.name, agent, ErrNotRegistered)
		}
		if assign, err = c.interpret(ctx, assign, status, version, err); err != nil {
			return Assignment{}, err
		}
		if !assign.Zero() {
			op.lat.ObserveDuration(time.Since(start))
			return assign, nil
		}
		// The mapping proved stale; whatever we may have cached for the
		// agent under it is untrustworthy too.
		c.cache.invalidate(agent)
	}
	return Assignment{}, fmt.Errorf("%s %s: %w", op.name, agent, ErrRetriesExhausted)
}

// interpret folds one IAgent answer into the loop's state. An OK returns the
// assignment, raised to the IAgent's version. A stale mapping returns a zero
// assignment, so the loop re-resolves, once the local hash copy is refreshed
// past the mapping's version:
//   - not responsible: the IAgent is ahead of us; the copy catches up to at
//     least its version;
//   - agent not found: the IAgent is not at the node the mapping claimed —
//     merged away;
//   - any other call error while our own deadline stands: the node is
//     unreachable, possibly crashed with its IAgents merged away by the
//     failure detector. If the hash really is unchanged the refresh is cheap
//     and the retry burns one attempt; if the refresh fails, the original
//     failure is surfaced.
//
// Every version an IAgent answers with fences the location cache: whatever
// is cached under older versions is dead.
func (c *Client) interpret(ctx context.Context, assign Assignment, status Status, remoteVersion uint64, callErr error) (Assignment, error) {
	notFound := callErr != nil && platform.IsAgentNotFound(callErr)
	switch {
	case callErr != nil && !notFound && ctx.Err() != nil:
		return Assignment{}, callErr
	case callErr == nil && status == StatusOK:
		c.cache.fence(remoteVersion)
		assign.HashVersion = max(assign.HashVersion, remoteVersion)
		return assign, nil
	case callErr == nil && status != StatusNotResponsible:
		return Assignment{}, fmt.Errorf("core: unexpected IAgent status %v", status)
	}
	minVersion := assign.HashVersion + 1
	if callErr == nil {
		c.cache.fence(remoteVersion)
		minVersion = max(minVersion, remoteVersion)
	}
	sp, ctx := c.childSpan(ctx, "refresh")
	f := getFrame()
	f.refresh = RefreshReq{MinVersion: minVersion}
	err := c.ask(ctx, KindRefresh, &f.refresh, &f.refreshed)
	f.release()
	sp.End(err)
	switch {
	case err == nil:
		return Assignment{}, nil
	case callErr != nil && !notFound:
		return Assignment{}, callErr
	default:
		return Assignment{}, fmt.Errorf("refresh hash copy: %w", err)
	}
}
