package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// KindLHAdopt pushes a hash state into an LHAgent (eager-propagation
// ablation; the paper's design refreshes on demand instead).
const KindLHAdopt = "loc.lh-adopt"

// AdoptLHStateReq carries an eagerly pushed state.
type AdoptLHStateReq struct {
	State StateDTO
}

// LHAgentBehavior is a Local Hash Agent: one lives at every node and holds
// a secondary copy of the hash function (paper §2.2) for the agents of that
// node. The copy may be stale; it is refreshed on demand from the HAgent when
// a stale mapping is detected (paper §4.3).
//
// Concurrency rule: the four read kinds (whois, whois-batch, leaves, refresh)
// are answered in place, on the goroutine of a caller on the LHAgent's own
// node (AnswerLocal), from an atomic snapshot of the copy. A read the
// snapshot does not satisfy — no copy yet, or one older than the request
// demands — fetches from the HAgent on that same goroutine, one fetch at a
// time (copyAtLeast). Every answer comes from one copy, so a whois-batch
// resolves all its targets at one version. Only eager adopts use the mailbox.
type LHAgentBehavior struct {
	// Cfg is the mechanism configuration (HAgent id and node).
	Cfg Config

	// copy is the installed hash copy; nil until the first fetch or adopt.
	// Only a strictly newer version ever replaces it (install).
	copy   atomic.Pointer[hashCopy]
	hagent atomic.Int32 // the HAgent that answered the last fetch (askHAgents)

	mu       sync.Mutex
	fetching chan struct{} // closed when the fetch in flight ends; nil while none is
}

// hashCopy is one installed copy of the hash function with its leaf list
// precomputed. It is immutable once installed, so readers share it freely.
type hashCopy struct {
	*State
	leaves []LeafRef // sorted by IAgent id
}

func newHashCopy(st *State) *hashCopy {
	leaves := make([]LeafRef, 0, len(st.Locations))
	for ia, node := range st.Locations {
		leaves = append(leaves, LeafRef{IAgent: ia, Node: node})
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].IAgent < leaves[j].IAgent })
	return &hashCopy{State: st, leaves: leaves}
}

var _ platform.LocalAnswerer = (*LHAgentBehavior)(nil)

// errReadElsewhere refuses a read that reached the mailbox: a remote caller's,
// or a same-node one AnswerLocal does not recognise.
var errReadElsewhere = errors.New("reads are answered in place, for a caller on the LHAgent's own node")

// AnswerLocal implements platform.LocalAnswerer, and is the LHAgent's one
// read path: whois resolves the IAgent responsible for a target — the first
// step of every operation — and whois-batch does so for a LocateBatch's
// targets; leaves enumerates the responsible IAgents, the scatter set of a
// Discover fan-out; refresh reports the version. The request may come by
// value or by pointer, the response through a pointer to its type. A missing
// copy, or one older than a refresh's or leaves' MinVersion, is fetched
// first, within cctx (copyAtLeast). A leaf list stored through resp is the
// installed copy's own, which nothing writes once it is installed: the caller
// reads it and must not modify it. A whois-batch writes its owners into the
// capacity of resp's Owner.
func (b *LHAgentBehavior) AnswerLocal(cctx context.Context, ctx *platform.Context, kind string, req, resp any) (bool, error) {
	switch out := resp.(type) {
	case *WhoisResp:
		in, ok := reqAs[WhoisReq](req)
		if !ok || kind != KindWhois {
			return false, nil
		}
		cp, err := b.copyAtLeast(cctx, ctx, 0)
		if err == nil {
			*out, err = cp.whois(ctx.Self(), in.Target)
		}
		return true, err
	case *WhoisBatchResp:
		in, ok := reqAs[WhoisBatchReq](req)
		if !ok || kind != KindWhoisBatch {
			return false, nil
		}
		cp, err := b.copyAtLeast(cctx, ctx, 0)
		if err == nil {
			err = cp.whoisBatch(ctx.Self(), in.Targets, out)
		}
		return true, err
	case *RefreshResp:
		in, ok := reqAs[RefreshReq](req)
		if !ok || kind != KindRefresh {
			return false, nil
		}
		cp, err := b.copyAtLeast(cctx, ctx, in.MinVersion)
		if err == nil {
			*out = RefreshResp{HashVersion: cp.Version()}
		}
		return true, err
	case *LeavesResp:
		in, ok := reqAs[LeavesReq](req)
		if !ok || kind != KindLeaves {
			return false, nil
		}
		cp, err := b.copyAtLeast(cctx, ctx, in.MinVersion)
		if err == nil {
			*out = LeavesResp{HashVersion: cp.Version(), Leaves: cp.leaves}
		}
		return true, err
	}
	return false, nil
}

// reqAs reads a request passed as a T or a non-nil *T.
func reqAs[T any](req any) (T, bool) {
	switch r := req.(type) {
	case T:
		return r, true
	case *T:
		if r != nil {
			return *r, true
		}
	}
	var zero T
	return zero, false
}

// HandleRequest implements platform.Behavior: the mailbox serves eager adopts
// only. A read that reaches it is refused (errReadElsewhere).
func (b *LHAgentBehavior) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	switch kind {
	case KindLHAdopt:
		var req AdoptLHStateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		st, err := FromDTO(req.State)
		if err != nil {
			return nil, fmt.Errorf("LHAgent %s: adopt: %w", ctx.Self(), err)
		}
		return RefreshResp{HashVersion: b.install(st).Version()}, nil
	case KindWhois, KindWhoisBatch, KindLeaves, KindRefresh:
		return nil, fmt.Errorf("LHAgent %s: %s: %w", ctx.Self(), kind, errReadElsewhere)
	default:
		return nil, fmt.Errorf("LHAgent %s: unknown request kind %q", ctx.Self(), kind)
	}
}

// whois resolves the IAgent responsible for the target.
func (c *hashCopy) whois(self, target ids.AgentID) (WhoisResp, error) {
	iagent, node, err := c.OwnerOf(target)
	if err != nil {
		return WhoisResp{}, fmt.Errorf("LHAgent %s: %w", self, err)
	}
	return WhoisResp{IAgent: iagent, Node: node, HashVersion: c.Version()}, nil
}

// whoisBatch resolves every target against this one copy into out: the
// copy's own leaf list, and the owners written into out.Owner's capacity.
func (c *hashCopy) whoisBatch(self ids.AgentID, targets []ids.AgentID, out *WhoisBatchResp) error {
	owner := slices.Grow(out.Owner[:0], len(targets))[:len(targets)]
	for i, t := range targets {
		iagent, _, err := c.OwnerOf(t)
		if err != nil {
			*out = WhoisBatchResp{Owner: owner[:0]}
			return fmt.Errorf("LHAgent %s: %w", self, err)
		}
		// Every leaf with a location is in the sorted list, and OwnerOf
		// found iagent's.
		owner[i] = uint32(sort.Search(len(c.leaves), func(j int) bool { return c.leaves[j].IAgent >= iagent }))
	}
	*out = WhoisBatchResp{HashVersion: c.Version(), Leaves: c.leaves, Owner: owner}
	return nil
}

// copyAtLeast returns the installed copy once it exists and is at least
// minVersion fresh, pulling from the HAgent otherwise (the first copy lazily;
// a newer one on paper §4.3's update-propagation path, so a caller burned by
// a stale mapping or leaf list can demand a fresher one). The fetch runs on
// the caller's goroutine within cctx, and one at a time: a reader that finds
// one in flight waits for it within its own cctx, then looks again, and
// fetches for itself only if the copy is still too old. One fetch is all a
// reader tries: the answer carries whatever version that produced.
func (b *LHAgentBehavior) copyAtLeast(cctx context.Context, ctx *platform.Context, minVersion uint64) (*hashCopy, error) {
	for {
		if cp := b.copy.Load(); cp != nil && cp.Version() >= minVersion {
			return cp, nil
		}
		b.mu.Lock()
		if cp := b.copy.Load(); cp != nil && cp.Version() >= minVersion { // a fetch just ended
			b.mu.Unlock()
			return cp, nil
		}
		inFlight := b.fetching
		if inFlight == nil {
			b.fetching = make(chan struct{})
		}
		b.mu.Unlock()
		if inFlight == nil {
			cp, err := b.fetch(cctx, ctx)
			b.mu.Lock()
			close(b.fetching)
			b.fetching = nil
			b.mu.Unlock()
			return cp, err
		}
		select {
		case <-inFlight:
		case <-cctx.Done():
			return nil, cctx.Err()
		}
	}
}

// install makes st the local copy unless the installed one is already at
// least as new, and returns whichever copy is installed afterwards. Versions
// therefore never go backwards, whoever races: fetches are single-flight and
// adopts serial, but the CAS keeps the rule local to this function.
func (b *LHAgentBehavior) install(st *State) *hashCopy {
	next := newHashCopy(st)
	for {
		cur := b.copy.Load()
		if cur != nil && cur.Version() >= next.Version() {
			return cur
		}
		if b.copy.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// fetch pulls the primary copy from the HAgent, within cctx, if it is newer
// than the installed one, and installs it. When the primary is unreachable it
// fails over to the configured replicas (the fault-tolerance extension):
// reads survive a primary outage.
func (b *LHAgentBehavior) fetch(cctx context.Context, ctx *platform.Context) (*hashCopy, error) {
	var ifNewerThan uint64
	if cp := b.copy.Load(); cp != nil {
		ifNewerThan = cp.Version()
	}
	var resp GetHashResp
	_, err := askHAgents(cctx, b.Cfg, CtxCaller{ctx}, &b.hagent, KindGetHash, GetHashReq{IfNewerThan: ifNewerThan}, &resp, func(err error) bool { return err == nil })
	if err != nil {
		return nil, fmt.Errorf("LHAgent %s: fetch hash: %w", ctx.Self(), err)
	}
	if resp.Unchanged {
		cp := b.copy.Load()
		if cp == nil {
			return nil, fmt.Errorf("LHAgent %s: HAgent reported unchanged but no copy is cached", ctx.Self())
		}
		return cp, nil
	}
	st, err := FromDTO(resp.State)
	if err != nil {
		return nil, fmt.Errorf("LHAgent %s: decode hash: %w", ctx.Self(), err)
	}
	return b.install(st), nil
}
