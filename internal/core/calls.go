package core

import (
	"context"
	"sync/atomic"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// The mechanism's agents and clients make every call in one of two ways: a
// bounded call, one request under its own deadline, or a fan-out, many
// requests in flight together under one. Either bound is a
// transport.DeadlineContext on a parent the caller names — the operation's
// context, an agent's Lifetime, or Background for work that must outlive both.

// callWithin makes one call through c, bounded by timeout from now on top of
// parent.
func callWithin(parent context.Context, timeout time.Duration, c Caller, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) error {
	dc := transport.WithDeadline(parent, time.Now().Add(timeout))
	defer dc.Release()
	return c.Go(dc, at, agent, kind, req, resp).Wait()
}

// fanOut makes n calls at once under one deadline, timeout from now on top of
// parent, and hands each to land with its outcome as its reply lands, all on
// the calling goroutine (transport.Reap). post(ctx, i) makes call i, to node
// at(i): the calls to other nodes than local are posted first, then the ones
// to local. A same-node call to a mailbox is queued and in flight like a
// remote one, but one that a ConcurrentBehavior accepts — a leaf's
// locate-batch or discover leg — or a LocalAnswerer answers is served as it
// is posted, on this goroutine; posted last, it runs while the remote calls
// are in flight instead of before they leave. A slow call delays none of the
// others, and calls that stall cost the fan-out one deadline between them.
// Every call lands exactly once.
func fanOut(parent context.Context, timeout time.Duration, local platform.NodeID, n int, at func(i int) platform.NodeID, post func(ctx context.Context, i int) transport.Pending, land func(i int, err error)) {
	if n == 0 {
		return
	}
	dc := transport.WithDeadline(parent, time.Now().Add(timeout))
	defer dc.Release()
	var few [8]transport.Pending // the usual fan-out, kept off the heap
	calls := few[:0]
	if n > len(few) {
		calls = make([]transport.Pending, 0, n)
	}
	calls = calls[:n]
	for _, remote := range [2]bool{true, false} {
		for i := range calls {
			if (at(i) != local) == remote {
				calls[i] = post(dc, i)
			}
		}
	}
	transport.Reap(dc, calls, land)
}

// call is one request of an agent's fan-out.
type call struct {
	at        platform.NodeID
	agent     ids.AgentID
	kind      string
	req, resp any
}

// fanOutCalls makes the calls from ctx's agent as one fan-out under timeout,
// cancelled with the agent, and returns their errors, index-aligned.
func fanOutCalls(ctx *platform.Context, timeout time.Duration, calls []call) []error {
	errs := make([]error, len(calls))
	fanOut(ctx.Lifetime(), timeout, ctx.Node(), len(calls), func(i int) platform.NodeID { return calls[i].at },
		func(cctx context.Context, i int) transport.Pending {
			c := &calls[i]
			return ctx.Go(cctx, c.at, c.agent, c.kind, c.req, c.resp)
		},
		func(i int, err error) { errs[i] = err })
	return errs
}

// askHAgents walks the HAgents an agent may speak to — the primary, then the
// fallbacks, in a circle from the one last names, which an accepted answer
// moves — with one bounded call each, resp zeroed before it, until done
// accepts the outcome. It returns the HAgent asked last and its call's error.
func askHAgents[R any](parent context.Context, cfg Config, c Caller, last *atomic.Int32, kind string, req any, resp *R, done func(err error) bool) (src HAgentRef, err error) {
	refs, first := len(cfg.HAgentFallbacks)+1, int(last.Load())
	for step := range refs {
		i := (first + step) % refs
		if src = (HAgentRef{Agent: cfg.HAgent, Node: cfg.HAgentNode}); i > 0 {
			src = cfg.HAgentFallbacks[i-1]
		}
		var zero R
		*resp = zero
		if err = callWithin(parent, cfg.callTimeout(), c, src.Node, src.Agent, kind, req, resp); done(err) {
			last.Store(int32(i))
			break
		}
	}
	return src, err
}
