package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/stats"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// IAgentBehavior is an Information Agent: it maintains the precise current
// location of every mobile agent hashed to it (paper §2.2), tracks its own
// request rate and per-agent load, and asks the HAgent to split or merge it
// when the rate leaves [Tmin, Tmax]. The location table's slot is the only
// per-agent record it keeps: the accumulated request count of paper §4.1
// lives in the slot, beside the location the request asked for.
//
// An IAgent never moves once launched. Exported fields are what it is
// launched with — on another node, a split's newborn crosses the wire as
// them (ctx.LaunchAt) — and runtime machinery is built lazily at the hosting
// node (ensureRuntime).
type IAgentBehavior struct {
	// Cfg is the mechanism configuration.
	Cfg Config
	// StateSnapshot is the hash state the IAgent is launched with, read once
	// by ensureRuntime; nothing keeps it current after that (the live copy
	// is state).
	StateSnapshot StateDTO
	// Pending holds messages deposited for served agents until their next
	// check-in (the guaranteed-delivery extension; see discovery.go).
	Pending map[ids.AgentID][]Deposited

	// leaf is the leaf's state (leafstate.go): where each served agent is
	// and the requests it drew, its residence binding, and its capability
	// set. Only write changes it and only the reader resolves an agent out of
	// it. A newborn's is empty until ensureRuntime builds it.
	leaf leafState
	// checkpoints holds sibling IAgents' leaf copies, as the record logs
	// their pushes (KindCheckpoint) carried, folded on takeover
	// (crash-tolerance extension; see failover.go).
	checkpoints map[ids.AgentID]CheckpointState

	// inbox is the mailbox's decode target for a register or an update,
	// cleared after each (HandleRequest).
	inbox UpdateReq

	once    sync.Once
	initErr error

	// state is the current hash state. Reads are lock-free (State values
	// are immutable once published); installState, the one writer of a running
	// leaf, holds mu so a version check and the store it guards stay atomic.
	state atomic.Pointer[State]
	// answers is the served locate's answers at the current version
	// (locateAnswer).
	answers atomic.Pointer[locateAnswers]

	hagent atomic.Int32 // the HAgent that answered last (askHAgents)

	mu      sync.Mutex
	dead    bool
	settled time.Time // creation or last rehash involvement; gates merging

	est *stats.RateEstimator

	// Checkpoint bookkeeping (guarded by mu): the suffix — the records
	// logged since the last one the sibling leaf acknowledged, in stream
	// form, ckLen of them numbered from ckSeq — and whether the next push
	// must be a full one (see armFullCheckpoint). Records join the suffix
	// only while a delta could carry them — see write.
	ckSuffix []byte
	ckSeq    uint64
	ckLen    int
	ckFull   bool
	ckBuddy  ids.AgentID

	// Metric handles, rebuilt with the runtime at each hosting node. All
	// are nil-safe no-ops when the node has no registry.
	metRegister, metUpdate, metDeregister    *metrics.Counter
	metLocate, metResidenceMove, metDiscover *metrics.Counter

	metStale *metrics.Counter
	// The table's entries and the heap its slots and key arenas take.
	metTable, metTableBytes *metrics.Gauge
	metCkLag                *metrics.Gauge
	// Records shipped to the sibling leaf, by the kind of push they rode in.
	metCkSentFull, metCkSentDelta *metrics.Counter
}

var (
	_ platform.Behavior           = (*IAgentBehavior)(nil)
	_ platform.Runner             = (*IAgentBehavior)(nil)
	_ platform.ConcurrentBehavior = (*IAgentBehavior)(nil)
	_ platform.LocalAnswerer      = (*IAgentBehavior)(nil)
)

// ensureRuntime builds the unexported machinery at the hosting node, once.
func (b *IAgentBehavior) ensureRuntime(ctx *platform.Context) error {
	b.once.Do(func() {
		if b.leaf.table == nil {
			b.leaf = newLeafState()
		}
		if b.Pending == nil {
			b.Pending = make(map[ids.AgentID][]Deposited)
		}
		st, err := FromDTO(b.StateSnapshot)
		if err != nil {
			b.initErr = fmt.Errorf("IAgent %s: %w", ctx.Self(), err)
			return
		}
		b.state.Store(st)
		b.mu.Lock()
		b.settled = ctx.Clock().Now()
		b.mu.Unlock()
		b.est = stats.NewRateEstimator(ctx.Clock(), b.Cfg.RateWindow)
		// The first push is a full snapshot: the buddy may hold nothing (or
		// a stale base) for this sender.
		b.armFullCheckpoint()

		reg := ctx.Metrics()
		reg.Describe("agentloc_core_iagent_requests_total", "Location-protocol requests served, by IAgent and operation.")
		reg.Describe("agentloc_core_iagent_stale_total", "Requests answered not-responsible (stale client mapping), by IAgent.")
		reg.Describe("agentloc_core_iagent_table_entries", "Location-table entries held, by IAgent.")
		reg.Describe("agentloc_core_iagent_table_bytes", "Heap the location table's slot arrays and key arenas take, spare capacity included, by IAgent; divided by agentloc_core_iagent_table_entries it is the table's bytes per agent.")
		reg.Describe("agentloc_checkpoint_lag_entries", "Records the sibling leaf has not acknowledged — the checkpoint suffix — or, while a full push is owed, the table's entry count, by IAgent.")
		reg.Describe("agentloc_checkpoint_entries_sent_total", "Records shipped to the sibling leaf, by IAgent and kind of push (full: the whole table again; delta: the suffix of records logged since the last acknowledged one).")
		self := string(ctx.Self())
		requests := func(op string) *metrics.Counter {
			return reg.Counter("agentloc_core_iagent_requests_total", "iagent", self, "op", op)
		}
		b.metRegister, b.metUpdate, b.metDeregister = requests("register"), requests("update"), requests("deregister")
		b.metLocate, b.metResidenceMove, b.metDiscover = requests("locate"), requests("residence-move"), requests("discover")
		b.metStale = reg.Counter("agentloc_core_iagent_stale_total", "iagent", self)
		b.metTable = reg.Gauge("agentloc_core_iagent_table_entries", "iagent", self)
		b.metTableBytes = reg.Gauge("agentloc_core_iagent_table_bytes", "iagent", self)
		b.setTableGauges()
		b.metCkLag = reg.Gauge("agentloc_checkpoint_lag_entries", "iagent", self)
		b.metCkLag.Set(0)
		b.metCkSentFull = reg.Counter("agentloc_checkpoint_entries_sent_total", "iagent", self, "kind", "full")
		b.metCkSentDelta = reg.Counter("agentloc_checkpoint_entries_sent_total", "iagent", self, "kind", "delta")

		// Durable nodes get a full section at birth: the base every later
		// WAL record applies to.
		persist(ctx, b)
	})
	return b.initErr
}

// HandleConcurrent implements platform.ConcurrentBehavior: locate, single and
// batched — the hot, read-only path — and the liveness probe touch nothing
// but concurrency-safe state (the immutable hash-state pointer, the sharded
// Table with its atomic load counters, and the wait-free rate estimator), so
// they are served on the delivering goroutine, concurrently with each other
// and with the mailbox. Every mutating kind declines and goes through the
// serial mailbox, preserving the write-side invariants unchanged.
func (b *IAgentBehavior) HandleConcurrent(ctx *platform.Context, kind string, payload []byte) (any, bool, error) {
	switch kind {
	case KindLocate:
		if err := b.ensureRuntime(ctx); err != nil {
			return nil, true, err
		}
		b.metLocate.Inc()
		// Every sender encodes a LocateReq in binary, so it is served off the
		// payload: the id stays a view into the frame and the table is probed
		// by bytes, and the key costs no allocation.
		agent, err := locateReqAgent(payload)
		if err != nil {
			return nil, true, err
		}
		return b.locateAnswer(b.locateBytes(ctx, agent)), true, nil
	case KindLocateBatch:
		if err := b.ensureRuntime(ctx); err != nil {
			return nil, true, err
		}
		// Served off the payload like a single locate, each agent judged on its
		// own, its result written into the reply as it is resolved.
		n, list, err := locateBatchReqIDs(payload)
		if err != nil {
			return nil, true, err
		}
		b.metLocate.Add(uint64(n))
		body := wire.GetBuf()
		*body = wire.AppendUvarint(*body, uint64(n))
		d := wire.NewDec(list)
		for range n {
			id, _ := d.Bytes(wire.MaxIDLen) // checked by locateBatchReqIDs
			*body = b.locateBytes(ctx, id).AppendWire(*body)
		}
		return encodedAnswer{body}, true, nil
	case KindDiscover:
		// The capability index, Table and Residence are all individually
		// concurrency-safe, so discovery rides the read fast path beside
		// locates, its query's tags read as views of the payload.
		if err := b.ensureRuntime(ctx); err != nil {
			return nil, true, err
		}
		query, err := binaryBody(payload, "discover request")
		if err != nil {
			return nil, true, err
		}
		s := discoverScratchPool.Get().(*discoverScratch)
		d := wire.NewDec(query)
		near, limit, err := readDiscoverReq(d, func(tag string) { s.caps = append(s.caps, tag) })
		if err == nil {
			err = d.Done()
		}
		if err != nil {
			s.release()
			return nil, true, err
		}
		b.metDiscover.Inc()
		body := wire.GetBuf()
		*body = b.discover(s, platform.NodeID(near), limit).AppendWire(*body)
		s.release()
		return encodedAnswer{body}, true, nil
	case KindIAgentPing:
		if err := b.ensureRuntime(ctx); err != nil {
			return nil, true, err
		}
		return Ack{Status: StatusOK, HashVersion: b.state.Load().Version()}, true, nil
	default:
		return nil, false, nil
	}
}

// AnswerLocal implements platform.LocalAnswerer: a client on the leaf's own
// node has its locate served as a remote one is by HandleConcurrent, the
// answer stored through its response pointer instead of passing the codec.
func (b *IAgentBehavior) AnswerLocal(_ context.Context, ctx *platform.Context, kind string, req, resp any) (bool, error) {
	in, ok := req.(*LocateReq)
	out, rok := resp.(*LocateResp)
	if !ok || !rok || kind != KindLocate {
		return false, nil
	}
	if err := b.ensureRuntime(ctx); err != nil {
		return true, err
	}
	b.metLocate.Inc()
	// The id's copy is on the stack for an id of up to 32 bytes.
	*out = b.locateBytes(ctx, []byte(in.Agent))
	return true, nil
}

// HandleRequest implements platform.Behavior. The platform delivers these
// requests strictly serially (only the read-only kinds above bypass the
// mailbox); the mutex guards the pieces the Run goroutine also reads
// (liveness, settle time, checkpoint bookkeeping, pending mail).
func (b *IAgentBehavior) HandleRequest(ctx *platform.Context, kind string, payload []byte) (any, error) {
	if err := b.ensureRuntime(ctx); err != nil {
		return nil, err
	}
	if resp, handled, err := b.decodeDiscovery(ctx, kind, payload); handled {
		return resp, err
	}
	if resp, handled, err := b.decodeFailover(ctx, kind, payload); handled {
		return resp, err
	}
	switch kind {
	case KindRegister, KindUpdate:
		// Registration reuses the update shape on the wire (clients send
		// UpdateReq with an empty Residence), so decode the superset; the
		// binding stays cleared either way. The request is decoded into the
		// mailbox's own value, cleared once it is written: HandleRequest runs
		// one request at a time. Its agent id is a view of the payload, which
		// is valid until HandleRequest returns: the write copies what it
		// keeps.
		req := &b.inbox
		err := decodeUpdateView(payload, req)
		if kind == KindRegister {
			b.metRegister.Inc()
			req.Residence = ""
		} else {
			b.metUpdate.Inc()
		}
		var ack Ack
		if err == nil {
			ack, err = b.recordLocation(ctx, *req, true)
		}
		*req = UpdateReq{}
		if err != nil {
			return nil, err
		}
		return b.ackAnswer(ack), nil
	case KindUpdateBatch:
		// Served off the payload like a single update: each agent id a view
		// of the frame, each ack written into the reply as it is judged.
		n, list, err := updateBatchReqList(payload)
		if err != nil {
			return nil, err
		}
		b.metUpdate.Add(uint64(n))
		return b.recordBatch(ctx, n, list)
	case KindResidenceMove:
		b.metResidenceMove.Inc()
		var req ResidenceMoveReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return b.residenceMove(ctx, req)
	case KindDeregister:
		b.metDeregister.Inc()
		var req DeregisterReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return b.deregister(ctx, req.Agent)
	case KindAdoptState:
		var req AdoptStateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		sp := ctx.StartSpan("control", "iagent.adopt")
		ack, err := b.adoptState(ctx, req)
		sp.End(err)
		return ack, err
	case KindHandoff:
		var req HandoffReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		sp := ctx.StartSpan("control", "iagent.handoff")
		ack, err := b.handoff(ctx, req)
		sp.End(err)
		return ack, err
	default:
		return nil, fmt.Errorf("IAgent %s: unknown request kind %q", ctx.Self(), kind)
	}
}

// responsible reports whether this IAgent currently serves the agent with
// the given ids.Hash64. It is lock-free and safe on the concurrent fast path.
func (b *IAgentBehavior) responsible(ctx *platform.Context, hash uint64) (bool, uint64) {
	st := b.state.Load()
	owner, _, err := st.OwnerOfHash(hash)
	if err != nil {
		return false, st.Version()
	}
	return owner == ctx.Self(), st.Version()
}

// recordLocation serves one register or update request, its change on the
// stack.
func (b *IAgentBehavior) recordLocation(ctx *platform.Context, u UpdateReq, view bool) (Ack, error) {
	var one [1]change
	ack, changes := b.judge(ctx, &u, view, one[:0])
	return ack, b.write(ctx, ack.HashVersion, changes, false)
}

// recordBatch serves a KindUpdateBatch: the n updates back to back in list, a
// view of the request frame (updateBatchReqList), each judged on its own and
// its ack written into the reply as it is, and the responsible ones one write.
func (b *IAgentBehavior) recordBatch(ctx *platform.Context, n int, list []byte) (any, error) {
	changes := make([]change, 0, n)
	body := wire.GetBuf()
	*body = wire.AppendUvarint(*body, uint64(n))
	var ack Ack
	var u UpdateReq
	d := wire.NewDec(list)
	for range n {
		_ = u.decode(d, true) // checked by updateBatchReqList
		ack, changes = b.judge(ctx, &u, true, changes)
		*body = ack.AppendWire(*body)
	}
	if err := b.write(ctx, ack.HashVersion, changes, false); err != nil {
		wire.PutBuf(body)
		return nil, err
	}
	return encodedAnswer{body}, nil
}

// judge answers one register or update (paper §2.3: "each time A moves, it
// informs its IAgent about its new location"), appending its change to
// changes. An agent this IAgent is not responsible for is answered so and
// changes nothing. A non-empty Residence binds the agent to that handle at
// Node; an empty one clears any binding — an individually-reported move means
// the agent left its group. A non-empty Capabilities replaces the agent's
// capability set; empty means no capability change, so plain moves never wipe
// an advertised set. view says u's agent id is a view of the request frame
// (decodeUpdateView). The caller writes the changes, logged before any is
// applied or acknowledged.
func (b *IAgentBehavior) judge(ctx *platform.Context, u *UpdateReq, view bool, changes []change) (Ack, []change) {
	b.est.Record()
	hash := u.Agent.Hash64()
	ok, version := b.responsible(ctx, hash)
	if !ok {
		b.metStale.Inc()
		return Ack{Status: StatusNotResponsible, HashVersion: version}, changes
	}
	// An update counts as a request.
	changes = append(changes, change{agent: u.Agent, hash: hash, node: u.Node, handle: u.Residence, caps: u.Capabilities, load: 1, view: view})
	return Ack{Status: StatusOK, HashVersion: version}, changes
}

// residenceMove serves KindResidenceMove: re-point a residence handle at
// its group's new node, covering every bound member this IAgent serves with
// one request. Residence ids are not hashed, so there is no responsibility
// check on the handle itself; the members' bindings only exist here while
// their entries do. An unknown handle answers StatusUnknownAgent and the
// sender falls back to per-member bound updates, which re-create the record
// wherever the members live now. The move is a bound update per member, one
// write: a failed append fails the request and the sender retries.
func (b *IAgentBehavior) residenceMove(ctx *platform.Context, req ResidenceMoveReq) (ResidenceMoveResp, error) {
	b.est.Record()
	version := b.state.Load().Version()
	changes, known := b.leaf.move(req.Residence, req.Node)
	if !known {
		return ResidenceMoveResp{Status: StatusUnknownAgent, HashVersion: version}, nil
	}
	if err := b.write(ctx, version, changes, false); err != nil {
		return ResidenceMoveResp{}, err
	}
	return ResidenceMoveResp{Status: StatusOK, HashVersion: version, Bound: len(changes)}, nil
}

// deregister forgets a disposed agent, its capability set and its mail. The
// delete is logged before it is applied, like every acknowledged mutation.
func (b *IAgentBehavior) deregister(ctx *platform.Context, agent ids.AgentID) (Ack, error) {
	b.est.Record()
	hash := agent.Hash64()
	ok, version := b.responsible(ctx, hash)
	if !ok {
		b.metStale.Inc()
		return Ack{Status: StatusNotResponsible, HashVersion: version}, nil
	}
	if err := b.write(ctx, version, []change{{agent: agent, hash: hash, delete: true}}, false); err != nil {
		return Ack{}, err
	}
	return Ack{Status: StatusOK, HashVersion: version}, nil
}

// locateBytes serves a location query for an id still sitting in the request
// frame (paper §2.3: the IAgent first checks whether it is still responsible
// for the agent). The id is hashed once, for the responsibility check and the
// table probe, and the probe counts the request in the slot it finds; an agent
// the table does not hold is counted nowhere. It takes only read locks, so
// concurrent locates proceed in parallel, and the client receives (and
// caches) a final address.
func (b *IAgentBehavior) locateBytes(ctx *platform.Context, agent []byte) LocateResp {
	b.est.Record()
	hash := ids.HashBytes(agent)
	ok, version := b.responsible(ctx, hash)
	if !ok {
		b.metStale.Inc()
		return LocateResp{Status: StatusNotResponsible, HashVersion: version}
	}
	node, found := b.leaf.locate(agent, hash)
	if !found {
		return LocateResp{Status: StatusUnknownAgent, HashVersion: version}
	}
	return LocateResp{Status: StatusOK, Node: node, HashVersion: version}
}

// locateAnswers is every answer a served locate, register or update gives at
// one hash version. It is immutable once published, so a locate or a move
// returns a pointer into it and builds or boxes nothing per request.
type locateAnswers struct {
	stale, unknown LocateResp
	at             map[platform.NodeID]*LocateResp
	acked, refused Ack
}

// maxLocateAnswers bounds the nodes a leaf keeps an answer for; past it, a
// locate builds its own.
const maxLocateAnswers = 1 << 10

// answersAt is the answer set of version, published if newer, nil if older.
func (b *IAgentBehavior) answersAt(version uint64) *locateAnswers {
	for {
		cur := b.answers.Load()
		if cur != nil && cur.stale.HashVersion >= version {
			if cur.stale.HashVersion > version {
				return nil
			}
			return cur
		}
		b.answers.CompareAndSwap(cur, &locateAnswers{
			stale:   LocateResp{Status: StatusNotResponsible, HashVersion: version},
			unknown: LocateResp{Status: StatusUnknownAgent, HashVersion: version},
			acked:   Ack{Status: StatusOK, HashVersion: version},
			refused: Ack{Status: StatusNotResponsible, HashVersion: version},
		})
	}
}

// locateAnswer returns the shared, immutable copy of a served locate's
// answer, which a single locate returns without boxing a value. The set is
// rebuilt when the version moves and copied with one more node when the node
// is new to it; a request that read the hash state just before a newer one was
// installed gets an answer of its own.
func (b *IAgentBehavior) locateAnswer(r LocateResp) *LocateResp {
	for {
		cur := b.answersAt(r.HashVersion)
		switch {
		case cur == nil:
			return &LocateResp{Status: r.Status, Node: r.Node, HashVersion: r.HashVersion}
		case r.Status == StatusNotResponsible:
			return &cur.stale
		case r.Status == StatusUnknownAgent:
			return &cur.unknown
		}
		if shared := cur.at[r.Node]; shared != nil {
			return shared
		}
		if len(cur.at) >= maxLocateAnswers {
			return &LocateResp{Status: r.Status, Node: r.Node, HashVersion: r.HashVersion}
		}
		next := *cur
		next.at = make(map[platform.NodeID]*LocateResp, len(cur.at)+1)
		for n, shared := range cur.at {
			next.at[n] = shared
		}
		next.at[r.Node] = &LocateResp{Status: r.Status, Node: r.Node, HashVersion: r.HashVersion}
		b.answers.CompareAndSwap(cur, &next)
	}
}

// ackAnswer is locateAnswer for a register's or an update's ack, which the
// mailbox returns without boxing a value.
func (b *IAgentBehavior) ackAnswer(a Ack) *Ack {
	if cur := b.answersAt(a.HashVersion); cur != nil {
		switch a {
		case cur.acked:
			return &cur.acked
		case cur.refused:
			return &cur.refused
		}
	}
	return &Ack{Status: a.Status, HashVersion: a.HashVersion}
}

// encodedAnswer is a served locate batch's, discovery's or update batch's
// reply, its body written into a wire.GetBuf buffer while the request was
// served: it builds no list of results, matches or acks, and its work falls
// inside its server span.
// Appending the body gives the buffer back, so an answer is encoded once —
// as every reply is — and one never encoded leaves its buffer to the
// collector.
type encodedAnswer struct{ body *[]byte }

func (a encodedAnswer) AppendWire(dst []byte) []byte {
	dst = append(dst, *a.body...)
	wire.PutBuf(a.body)
	return dst
}

// discoverScratch is the space a served discovery gathers its query's tags,
// the index's matches and their records in.
type discoverScratch struct {
	caps    []string
	agents  []ids.AgentID
	matches []DiscoverMatch
}

var discoverScratchPool = sync.Pool{New: func() any { return new(discoverScratch) }}

// maxDiscoverScratch bounds the matches pooled scratch keeps room for: a rare
// query matching a large share of a leaf is not worth holding on to.
const maxDiscoverScratch = 1 << 12

func (s *discoverScratch) release() {
	if cap(s.agents) > maxDiscoverScratch {
		return
	}
	s.caps, s.agents, s.matches = reuse(s.caps), reuse(s.agents), reuse(s.matches)
	discoverScratchPool.Put(s)
}

// discover answers the capability query in s.caps against the secondary
// index, each match resolved to its current node by the reader — the
// resolution locate performs, so the caller receives final addresses. Matches
// are near-preferred, then ordered by agent id for determinism, then
// truncated to limit. There is no per-agent responsibility check: the index
// only ever holds agents this IAgent serves (handoffs move capability sets
// with their entries), and an agent absent from the table — a phantom left by
// a lost removal — is simply skipped. The answer's matches are s's.
func (b *IAgentBehavior) discover(s *discoverScratch, near platform.NodeID, limit int) DiscoverResp {
	b.est.Record()
	resp := DiscoverResp{Status: StatusOK, HashVersion: b.state.Load().Version()}
	s.agents = b.leaf.caps.AppendMatch(s.agents, s.caps)
	for _, agent := range s.agents {
		if r, found := b.leaf.get(agent); found {
			s.matches = append(s.matches, DiscoverMatch{Agent: agent, Node: r.node})
		}
	}
	slices.SortFunc(s.matches, nearFirst[DiscoverMatch](near))
	if limit > 0 && len(s.matches) > limit {
		s.matches = s.matches[:limit]
	}
	resp.Matches = s.matches
	return resp
}

// adoptState installs a new hash state pushed by the HAgent after a rehash
// this IAgent is involved in, hands off every entry it no longer owns to
// the now-responsible IAgents, and marks itself dead if its leaf is gone.
// A push of the version already held (the HAgent retries when an ack was
// lost or an earlier adopt failed part-way) installs nothing but still
// finishes the work: it activates the checkpoint and hands off whatever a
// failed handoff left behind.
func (b *IAgentBehavior) adoptState(ctx *platform.Context, req AdoptStateReq) (Ack, error) {
	st, err := FromDTO(req.State)
	if err != nil {
		return Ack{}, fmt.Errorf("IAgent %s: adopt: %w", ctx.Self(), err)
	}
	b.mu.Lock()
	cur := b.state.Load()
	status := StatusOK
	if st.Version() <= cur.Version() {
		status, st = StatusIgnored, cur
	} else {
		// What this leaf serves changed: the buddy has dropped its copy, which
		// described another id space. (A new buddy is pushCheckpoint's to see.)
		if !sameLeaf(cur.Tree, st.Tree, string(ctx.Self())) {
			b.armFullCheckpoint()
		}
		b.installState(ctx.Self(), st, req.PromoteCheckpointOf)
		b.settled = ctx.Clock().Now()
	}
	stillPresent := st.Tree.Contains(string(ctx.Self()))
	b.mu.Unlock()

	if req.PromoteCheckpointOf != "" {
		b.activateCheckpoint(ctx, req.PromoteCheckpointOf)
	}

	// Group what this leaf no longer owns by its new owner: each agent's
	// record, in one pass of the reader, and every message whose target left,
	// whether the table holds the target or not — a deposit may precede its
	// target's registration.
	leaving := func(hash uint64) (ids.AgentID, bool) {
		owner, _, err := st.OwnerOfHash(hash)
		return owner, err == nil && owner != ctx.Self()
	}
	moved := make(map[ids.AgentID]*HandoffReq)
	handoffTo := func(owner ids.AgentID) *HandoffReq {
		if moved[owner] == nil {
			moved[owner] = &HandoffReq{Pending: make(map[ids.AgentID][]Deposited)}
		}
		return moved[owner]
	}
	b.leaf.each(func(hash uint64) bool { _, gone := leaving(hash); return gone }, func(r record) bool {
		owner, _ := leaving(r.hash)
		h := handoffTo(owner)
		h.Records = snapshot.AppendStream(h.Records, r.put(r.load))
		return true
	})
	b.mu.Lock()
	for target, msgs := range b.Pending {
		if owner, gone := leaving(target.Hash64()); gone {
			handoffTo(owner).Pending[target] = msgs
		}
	}
	b.mu.Unlock()
	for owner, h := range moved {
		ownerNode, ok := st.Locations[owner]
		if !ok {
			return Ack{}, fmt.Errorf("IAgent %s: no location for new owner %s", ctx.Self(), owner)
		}
		if err := b.callWithRetry(ctx, ownerNode, owner, KindHandoff, h, nil); err != nil {
			return Ack{}, fmt.Errorf("IAgent %s: handoff to %s: %w", ctx.Self(), owner, err)
		}
		var gone []change // read back from the records sent, as views of them
		var rec snapshot.Record
		for d := wire.NewDec(h.Records); d.Remaining() > 0; {
			data, _ := d.Bytes(wire.MaxFrameLen)
			_ = snapshot.ViewRecord(data, &rec, nil)
			gone = append(gone, change{agent: ids.AgentID(rec.Agent), hash: ids.AgentID(rec.Agent).Hash64(), delete: true, view: true})
		}
		// Best effort: the full section persisted below is the durable
		// authority for the post-handoff table, and a resurrected entry
		// would only draw not-responsible answers anyway.
		_ = b.write(ctx, st.Version(), gone, true)
		b.mu.Lock()
		for target := range h.Pending {
			delete(b.Pending, target)
		}
		b.mu.Unlock()
	}
	if status == StatusIgnored && len(moved) == 0 {
		return Ack{Status: status, HashVersion: st.Version()}, nil
	}
	persist(ctx, b)

	if !stillPresent {
		b.mu.Lock()
		b.dead = true
		b.mu.Unlock()
		ctx.Emit("iagent.retire", fmt.Sprintf("leaf gone at v%d; handed off %d owners", st.Version(), len(moved)))
	} else if len(moved) > 0 {
		ctx.Emit("iagent.adopt", fmt.Sprintf("v%d; handed off to %d owners", st.Version(), len(moved)))
	}
	// A rehash resets the rate statistics so the fresh assignment is
	// measured from scratch.
	b.est.Reset()
	return Ack{Status: status, HashVersion: st.Version()}, nil
}

// handoff merges entries transferred from another IAgent during rehashing:
// one write, logged before the handoff is acknowledged — once the sender
// deletes its copies, this log is their only durable home until the next
// full section. A failed append fails the request and the sender retries.
func (b *IAgentBehavior) handoff(ctx *platform.Context, req HandoffReq) (Ack, error) {
	changes, err := handoffChanges(req.Records)
	if err != nil {
		return Ack{}, fmt.Errorf("IAgent %s: handoff: %w", ctx.Self(), err)
	}
	b.leaf.table.Reserve(len(changes))
	if err := b.write(ctx, b.state.Load().Version(), changes, false); err != nil {
		return Ack{}, err
	}
	b.mu.Lock()
	for agent, msgs := range req.Pending {
		b.Pending[agent] = append(b.Pending[agent], msgs...)
	}
	b.mu.Unlock()
	return Ack{Status: StatusOK, HashVersion: b.state.Load().Version()}, nil
}

// handoffChanges is the write that makes a leaf hold a handoff's records, its
// agent ids views of them. A record no leaf hands off — a delete, a put with no
// address, a load past a slot's count, one cut short — is wire.ErrCorrupt.
func handoffChanges(records []byte) ([]change, error) {
	var changes []change
	var tags []string // every change's capability set, back to back
	var rec snapshot.Record
	for d := wire.NewDec(records); d.Remaining() > 0; {
		data, err := d.Bytes(wire.MaxFrameLen)
		if err != nil || snapshot.ViewRecord(data, &rec, wireIntern) != nil || rec.Op != snapshot.OpPut ||
			rec.IAgent != "" || rec.HashVersion != 0 || rec.Node == "" || rec.Load > math.MaxUint32 {
			return nil, fmt.Errorf("%w: handoff record %d is not one a leaf hands off", wire.ErrCorrupt, len(changes))
		}
		c := recordChange(rec)
		c.handoff, c.view = true, true
		if len(c.caps) > 0 {
			tags = append(tags, c.caps...)
			c.caps = slices.Clip(tags[len(tags)-len(c.caps):])
		}
		changes = append(changes, c)
	}
	return changes, nil
}

// loadReport reads a split request's statistics off the table in one pass:
// each charged slot's load goes to the total and to the BitLoad word of every
// set bit of the slot's hash, so no id is hashed or rendered again and the
// report has the same size at any population.
func loadReport(table *loctable.Table) (bitLoad [64]uint64, total uint64) {
	table.RangeSlots(func(s loctable.Slot) bool {
		if s.Load > 0 {
			addBitLoad(&bitLoad, s.Hash, uint64(s.Load))
			total += uint64(s.Load)
		}
		return true
	})
	return bitLoad, total
}

// callWithRetry retries transient call failures a few times; handoffs must
// not be lost to a single dropped message.
func (b *IAgentBehavior) callWithRetry(ctx *platform.Context, at platform.NodeID, agent ids.AgentID, kind string, req, resp any) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = callWithin(context.Background(), b.Cfg.callTimeout(), CtxCaller{ctx}, at, agent, kind, req, resp); err == nil {
			return nil
		}
	}
	return err
}

// Run implements platform.Runner: the IAgent's autonomous loop compares its
// request rate against the thresholds every CheckInterval and asks the
// HAgent for a split or a merge (paper §4). It also disposes the agent once
// a merge has removed its leaf.
func (b *IAgentBehavior) Run(ctx *platform.Context) error {
	if err := b.ensureRuntime(ctx); err != nil {
		return err
	}
	lastBeat := time.Time{} // zero: beat on the first tick
	lastCk := ctx.Clock().Now()
	for {
		if !ctx.Sleep(b.Cfg.CheckInterval) {
			return nil // agent stopped
		}
		b.mu.Lock()
		dead := b.dead
		settled := b.settled
		b.mu.Unlock()
		version := b.state.Load().Version()

		if dead {
			ctx.Dispose()
			return nil
		}

		// Crash tolerance: heartbeat the HAgent and checkpoint the table to
		// the sibling leaf. Cadence granularity is CheckInterval — intervals
		// shorter than that degrade to once per tick.
		if b.Cfg.failoverEnabled() {
			now := ctx.Clock().Now()
			if now.Sub(lastBeat) >= b.Cfg.HeartbeatInterval {
				lastBeat = now
				b.sendHeartbeat(ctx)
			}
			if now.Sub(lastCk) >= b.Cfg.checkpointEvery() {
				lastCk = now
				b.pushCheckpoint(ctx)
			}
		}

		rate := b.est.Rate()
		switch {
		case rate > b.Cfg.TMax:
			req := RequestSplitReq{
				IAgent:      ctx.Self(),
				HashVersion: version,
				Rate:        rate,
			}
			req.BitLoad, req.Total = loadReport(b.leaf.table)
			// A failed or declined request is retried naturally at the
			// next tick; the rate condition persists while overloaded.
			b.requestRehash(ctx, KindRequestSplit, req)
		case rate < b.Cfg.TMin && ctx.Clock().Now().Sub(settled) >= b.Cfg.MergeGrace:
			req := RequestMergeReq{IAgent: ctx.Self(), HashVersion: version, Rate: rate}
			b.requestRehash(ctx, KindRequestMerge, req)
		}
	}
}

// requestRehash sends a split/merge request to the primary HAgent, falling
// back to the configured replicas. A replica that has not been promoted
// answers Standby — keep walking; only a primary's answer counts.
func (b *IAgentBehavior) requestRehash(ctx *platform.Context, kind string, req any) {
	var resp RehashResp
	_, _ = askHAgents(ctx.Lifetime(), b.Cfg, CtxCaller{ctx}, &b.hagent, kind, req, &resp, func(err error) bool { return err == nil && !resp.Standby })
}
