package core

import (
	"context"
	"fmt"
	"sort"
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
// a secondary copy of the hash function (paper §2.2). The copy may be
// stale; it is refreshed on demand from the HAgent when a stale mapping is
// detected (paper §4.3).
//
// Concurrency rule: the four read kinds (whois, whois-batch, leaves, refresh)
// are answered from an atomic snapshot of the copy, on the caller's goroutine,
// whenever the snapshot already satisfies the request (HandleConcurrent);
// anything that must talk to the HAgent — the first copy, a stale copy — goes
// through the serial mailbox, which keeps fetches single-flight. Every answer
// comes from one copy, so a whois-batch resolves all its targets at one
// version.
type LHAgentBehavior struct {
	// Cfg is the mechanism configuration (HAgent id and node).
	Cfg Config

	// copy is the installed hash copy; nil until the first fetch or adopt.
	// Only a strictly newer version ever replaces it (install).
	copy atomic.Pointer[hashCopy]
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

var (
	_ platform.ConcurrentBehavior = (*LHAgentBehavior)(nil)
	_ platform.LocalAnswerer      = (*LHAgentBehavior)(nil)
)

// AnswerLocal implements platform.LocalAnswerer: the client on this node —
// every whois is one — gets the four read kinds answered from the installed
// copy by value, under HandleConcurrent's condition (the copy exists and is
// fresh enough) and with its answers, minus the codec on both sides.
func (b *LHAgentBehavior) AnswerLocal(ctx *platform.Context, kind string, req, resp any) (bool, error) {
	cp := b.copy.Load()
	if cp == nil {
		return false, nil
	}
	switch req := req.(type) {
	case *WhoisReq:
		out, ok := resp.(*WhoisResp)
		if !ok || kind != KindWhois {
			return false, nil
		}
		var err error
		if *out, err = cp.whois(ctx.Self(), req.Target); err != nil {
			return true, err
		}
	case *WhoisBatchReq:
		out, ok := resp.(*WhoisBatchResp)
		if !ok || kind != KindWhoisBatch {
			return false, nil
		}
		var err error
		if *out, err = cp.whoisBatch(ctx.Self(), req.Targets); err != nil {
			return true, err
		}
		// The caller gets its own leaf list, as with leaves below.
		out.Leaves = append([]LeafRef(nil), out.Leaves...)
	case *RefreshReq:
		out, ok := resp.(*RefreshResp)
		if !ok || kind != KindRefresh || cp.Version() < req.MinVersion {
			return false, nil
		}
		*out = RefreshResp{HashVersion: cp.Version()}
	case *LeavesReq:
		out, ok := resp.(*LeavesResp)
		if !ok || kind != KindLeaves || cp.Version() < req.MinVersion {
			return false, nil
		}
		// The copy's leaf list is shared between answers; the caller gets
		// its own.
		*out = LeavesResp{HashVersion: cp.Version(), Leaves: append([]LeafRef(nil), cp.leaves...)}
	default:
		return false, nil
	}
	return true, nil
}

// HandleConcurrent implements platform.ConcurrentBehavior: the read kinds are
// answered straight from the installed copy when it is present and at least
// as fresh as the request demands. Everything else — a missing
// or stale copy, which needs a fetch from the HAgent, and adopt — declines
// and is served by the mailbox.
func (b *LHAgentBehavior) HandleConcurrent(ctx *platform.Context, kind string, payload []byte) (any, bool, error) {
	cp := b.copy.Load()
	if cp == nil {
		return nil, false, nil
	}
	req, minVersion, err := decodeRead(kind, payload)
	if req == nil || (err == nil && cp.Version() < minVersion) {
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}
	resp, err := cp.answer(ctx.Self(), req)
	return resp, true, err
}

// HandleRequest implements platform.Behavior.
func (b *LHAgentBehavior) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	if kind == KindLHAdopt {
		var req AdoptLHStateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		st, err := FromDTO(req.State)
		if err != nil {
			return nil, fmt.Errorf("LHAgent %s: adopt: %w", ctx.Self(), err)
		}
		return RefreshResp{HashVersion: b.install(st).Version()}, nil
	}
	req, minVersion, err := decodeRead(kind, payload)
	if req == nil {
		return nil, fmt.Errorf("LHAgent %s: unknown request kind %q", ctx.Self(), kind)
	}
	if err != nil {
		return nil, err
	}
	cp, err := b.copyAtLeast(ctx, minVersion)
	if err != nil {
		return nil, err
	}
	return cp.answer(ctx.Self(), req)
}

// decodeRead decodes a request of one of the read kinds, and reports the hash
// version the copy must have reached to answer it (0: any copy will do). req
// is nil for every other kind.
func decodeRead(kind string, payload []byte) (req any, minVersion uint64, err error) {
	switch kind {
	case KindWhois:
		req = &WhoisReq{}
	case KindWhoisBatch:
		req = &WhoisBatchReq{}
	case KindRefresh:
		req = &RefreshReq{}
	case KindLeaves:
		req = &LeavesReq{}
	default:
		return nil, 0, nil
	}
	err = transport.Decode(payload, req)
	switch r := req.(type) {
	case *RefreshReq:
		minVersion = r.MinVersion
	case *LeavesReq:
		minVersion = r.MinVersion
	}
	return req, minVersion, err
}

// answer serves one decoded read from the copy. Whois resolves the IAgent
// responsible for the target — the fast path of every operation — and
// whois-batch does so for a LocateBatch's targets; leaves enumerates the
// responsible IAgents — the scatter set of a Discover fan-out; refresh reports
// the version. The leaf list is shared between answers: the platform copies
// every response through the codec, and nothing mutates it.
func (c *hashCopy) answer(self ids.AgentID, req any) (any, error) {
	switch req := req.(type) {
	case *WhoisReq:
		return c.whois(self, req.Target)
	case *WhoisBatchReq:
		return c.whoisBatch(self, req.Targets)
	case *LeavesReq:
		return LeavesResp{HashVersion: c.Version(), Leaves: c.leaves}, nil
	default:
		return RefreshResp{HashVersion: c.Version()}, nil
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

// whoisBatch resolves every target against this one copy.
func (c *hashCopy) whoisBatch(self ids.AgentID, targets []ids.AgentID) (WhoisBatchResp, error) {
	resp := WhoisBatchResp{HashVersion: c.Version(), Leaves: c.leaves, Owner: make([]uint32, len(targets))}
	for i, t := range targets {
		iagent, _, err := c.OwnerOf(t)
		if err != nil {
			return WhoisBatchResp{}, fmt.Errorf("LHAgent %s: %w", self, err)
		}
		// Every leaf with a location is in the sorted list, and OwnerOf
		// found iagent's.
		resp.Owner[i] = uint32(sort.Search(len(c.leaves), func(j int) bool { return c.leaves[j].IAgent >= iagent }))
	}
	return resp, nil
}

// copyAtLeast returns the installed copy once it exists and is at least
// minVersion fresh, pulling from the HAgent otherwise (the first copy lazily;
// a newer one on paper §4.3's update-propagation path, so a caller burned by
// a stale mapping or leaf list can demand a fresher one). One fetch is all it
// tries: the answer carries whatever version that produced.
func (b *LHAgentBehavior) copyAtLeast(ctx *platform.Context, minVersion uint64) (*hashCopy, error) {
	cp := b.copy.Load()
	if cp == nil {
		return b.fetch(ctx, 0)
	}
	if cp.Version() >= minVersion {
		return cp, nil
	}
	return b.fetch(ctx, cp.Version())
}

// install makes st the local copy unless the installed one is already at
// least as new, and returns whichever copy is installed afterwards. Versions
// therefore never go backwards, whoever races: mailbox fetches and adopts are
// serial, but the CAS keeps the rule local to this function.
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

// fetch pulls the primary copy from the HAgent if it is newer than the
// local version, and installs it. When the primary is unreachable it fails
// over to the configured replicas (the fault-tolerance extension): reads
// survive a primary outage.
func (b *LHAgentBehavior) fetch(ctx *platform.Context, ifNewerThan uint64) (*hashCopy, error) {
	var resp GetHashResp
	_, err := askHAgents(context.Background(), b.Cfg, CtxCaller{ctx}, KindGetHash, GetHashReq{IfNewerThan: ifNewerThan}, &resp, func(err error) bool { return err == nil })
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
