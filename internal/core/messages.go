// Package core implements the paper's hash-based mobile agent location
// mechanism: IAgents that track agent locations, the HAgent holding the
// primary copy of the extendible hash function, per-node LHAgents with
// on-demand-refreshed secondary copies, and the split/merge rehashing that
// keeps every IAgent's request rate inside [Tmin, Tmax].
package core

import (
	"encoding/gob"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// Message kinds of the location protocol.
const (
	// Client → LHAgent.
	KindWhois   = "loc.whois"
	KindRefresh = "loc.refresh"
	// Client → LHAgent: whois for every target of a LocateBatch, all answered
	// from one hash version.
	KindWhoisBatch = "loc.whois-batch"

	// Client / mobile agent → IAgent.
	KindRegister   = "loc.register"
	KindUpdate     = "loc.update"
	KindLocate     = "loc.locate"
	KindDeregister = "loc.deregister"
	// Client → IAgent: several locates for agents sharing a responsible
	// IAgent, answered in one frame.
	KindLocateBatch = "loc.locate-batch"
	// Batcher → IAgent: coalesced move updates, one RPC per peer per tick.
	KindUpdateBatch = "loc.update-batch"
	// Residence group → IAgent: re-point a residence handle after a group
	// migration, covering every member the IAgent serves with one RPC.
	KindResidenceMove = "loc.residence-move"
	// Client → IAgent: capability query against the leaf's secondary index
	// (capability tag → agent set), answered with matches plus each match's
	// current node from the location table.
	KindDiscover = "loc.discover"
	// Client → LHAgent: enumerate the leaves (responsible IAgents) of the
	// cached hash state, the scatter set for a Discover fan-out.
	KindLeaves = "loc.leaves"

	// HAgent → IAgent.
	KindAdoptState = "loc.adopt-state"
	// IAgent → IAgent.
	KindHandoff = "loc.handoff"

	// LHAgent / tools → HAgent.
	KindGetHash = "hash.get"
	// IAgent → HAgent.
	KindRequestSplit = "hash.request-split"
	KindRequestMerge = "hash.request-merge"
)

// Status encodes protocol-level outcomes that are not transport errors.
type Status int

const (
	// StatusOK means the operation succeeded.
	StatusOK Status = iota + 1
	// StatusNotResponsible means the contacted IAgent no longer serves the
	// named agent — the hash function has changed. The caller must refresh
	// its LHAgent copy and retry (paper §4.3).
	StatusNotResponsible
	// StatusUnknownAgent means the responsible IAgent has no entry for the
	// agent (never registered or deregistered).
	StatusUnknownAgent
	// StatusIgnored means the HAgent declined a rehash request (stale
	// version, rate back inside thresholds, or last remaining IAgent).
	StatusIgnored
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotResponsible:
		return "not-responsible"
	case StatusUnknownAgent:
		return "unknown-agent"
	case StatusIgnored:
		return "ignored"
	default:
		return "invalid-status"
	}
}

// WhoisReq asks an LHAgent which IAgent serves the target agent.
type WhoisReq struct {
	Target ids.AgentID
}

// WhoisResp names the responsible IAgent and its current node, along with
// the hash version the answer was computed from.
type WhoisResp struct {
	IAgent      ids.AgentID
	Node        platform.NodeID
	HashVersion uint64
}

// WhoisBatchReq asks an LHAgent which IAgents serve several targets.
type WhoisBatchReq struct {
	Targets []ids.AgentID
}

// WhoisBatchResp answers every target from one hash version: Owner[i] is the
// index in Leaves — the copy's leaf list, sorted by IAgent id — of the IAgent
// serving Targets[i].
type WhoisBatchResp struct {
	HashVersion uint64
	Leaves      []LeafRef
	Owner       []uint32
}

// RefreshReq forces an LHAgent to bring its hash copy to at least
// MinVersion by contacting the HAgent (paper §4.3 update propagation).
type RefreshReq struct {
	MinVersion uint64
}

// RefreshResp reports the LHAgent's version after the refresh.
type RefreshResp struct {
	HashVersion uint64
}

// UpdateReq informs the IAgent of an agent's new location after a move.
type UpdateReq struct {
	Agent ids.AgentID
	Node  platform.NodeID
	// Residence, when non-empty, binds the agent to a residence handle at
	// Node (see residence.go); when empty, the update clears any existing
	// binding — an individually-reported move means the agent left its
	// group.
	Residence ids.ResidenceID
	// Capabilities, when non-empty, replaces the agent's capability set in
	// the IAgent's secondary index (see internal/capindex). Empty means "no
	// capability change" — a plain move must not wipe the advertised set —
	// so withdrawing all capabilities takes a deregister + re-register.
	Capabilities []string
}

// DeregisterReq removes a disposed agent's entry.
type DeregisterReq struct {
	Agent ids.AgentID
}

// UpdateBatchReq coalesces several agents' move updates into one RPC. Each
// entry is acknowledged individually: a batch is a transport optimization,
// not a transaction, so one stale entry must not fail its peers.
type UpdateBatchReq struct {
	Updates []UpdateReq
}

// UpdateBatchResp acks each update, index-aligned with the request.
type UpdateBatchResp struct {
	Acks []Ack
}

// Ack is the IAgent's response to register/update/deregister requests.
type Ack struct {
	Status Status
	// HashVersion lets the caller detect how stale its copy is when
	// Status is StatusNotResponsible.
	HashVersion uint64
}

// ResidenceMoveReq re-points a residence handle to a new node. The IAgent
// answers for every member it serves in one step; the sender checks Bound
// against its own member list and falls back to per-member bound updates if
// the IAgent's record went stale (rehash, takeover, restart).
type ResidenceMoveReq struct {
	Residence ids.ResidenceID
	Node      platform.NodeID
}

// ResidenceMoveResp acks a residence move. StatusUnknownAgent means the
// IAgent has no record of the handle.
type ResidenceMoveResp struct {
	Status      Status
	HashVersion uint64
	// Bound is the number of agents the handle covered at this IAgent.
	Bound int
}

// LocateReq asks an IAgent for the current location of an agent it serves.
type LocateReq struct {
	Agent ids.AgentID
}

// LocateResp carries the located agent's node.
type LocateResp struct {
	Status      Status
	Node        platform.NodeID
	HashVersion uint64
}

// LocateBatchReq asks one IAgent for the locations of several agents it
// serves, in a single frame. Like UpdateBatchReq, a batch is a transport
// optimization, not a transaction: each agent is answered individually.
type LocateBatchReq struct {
	Agents []ids.AgentID
}

// LocateBatchResp answers each locate, index-aligned with the request.
type LocateBatchResp struct {
	Results []LocateResp
}

// GetHashReq pulls the hash state from the HAgent. If the HAgent's version
// is not greater than IfNewerThan, the response is flagged Unchanged and
// carries no state.
type GetHashReq struct {
	IfNewerThan uint64
}

// GetHashResp carries the primary hash state.
type GetHashResp struct {
	Unchanged bool
	State     StateDTO
}

// RequestSplitReq is sent by an overloaded IAgent (rate > Tmax). The HAgent
// picks an even split point from the reported load statistics (paper §4.1:
// "the exact number of update and query requests received per agent or for
// groups of agents"). Every split candidate asks one question — what share of
// the load has id bit i equal to b — so the report is 64 groups, one per bit:
//
//   - BitLoad[i] is the accumulated request count of the agents whose id bit
//     i is 1, bits numbered MSB-first as ids.AgentID.Binary numbers them.
//   - Total is the accumulated request count of all agents.
//
// The pair answers every candidate exactly, at a fixed size whatever the
// leaf's population. PerAgent is an older, per-agent form of the same
// statistics: leaves never fill it, and the HAgent folds it into the vector
// on arrival.
type RequestSplitReq struct {
	IAgent      ids.AgentID
	HashVersion uint64
	Rate        float64
	PerAgent    map[ids.AgentID]uint64
	BitLoad     [64]uint64
	Total       uint64
}

// RequestMergeReq is sent by an underloaded IAgent (rate < Tmin).
type RequestMergeReq struct {
	IAgent      ids.AgentID
	HashVersion uint64
	Rate        float64
}

// RehashResp reports the HAgent's decision on a split/merge request.
type RehashResp struct {
	Status      Status
	HashVersion uint64
	// Standby marks the answering HAgent as a replica that has not been
	// promoted; the requester should retry against the (new) primary.
	Standby bool
}

// AdoptStateReq pushes a new hash state to an IAgent involved in a rehash.
// The IAgent must re-derive its responsibilities, hand off entries it no
// longer owns, and — if its leaf is gone — dispose itself.
type AdoptStateReq struct {
	State StateDTO
	// PromoteCheckpointOf, when non-empty, names a failed IAgent whose
	// leaf this state change merged away (automatic takeover): the
	// receiver activates any checkpoint it holds from that IAgent for the
	// slice of id space it now owns.
	PromoteCheckpointOf ids.AgentID
}

// HandoffReq transfers location entries between IAgents during rehashing.
type HandoffReq struct {
	// Records is the leaving agents' record stream as the sender's reader
	// yields it, load included; decoded, it is a view of the request frame.
	Records []byte
	// Pending carries undelivered deposited messages (guaranteed-delivery
	// extension) so rehashing cannot lose mail.
	Pending map[ids.AgentID][]Deposited
	// Entries and Load have no meaning of their own: the encoder writes each
	// entry as a put record with its load after Records, and a decoded
	// request leaves both nil.
	Entries map[ids.AgentID]platform.NodeID
	Load    map[ids.AgentID]uint64
}

// DiscoverReq asks one IAgent for its agents matching every capability in
// Caps (AND semantics). Near, when non-empty, asks the leaf to prefer
// matches currently resident at (or bound near) that node; Limit, when
// positive, bounds the matches returned by this leaf.
type DiscoverReq struct {
	Caps  []string
	Near  platform.NodeID
	Limit int
}

// DiscoverMatch is one discovery result: an agent and its current node —
// the locality hint comes straight from the leaf's location table, so no
// second locate round is needed.
type DiscoverMatch struct {
	Agent ids.AgentID
	Node  platform.NodeID
}

// DiscoverResp answers a capability query from one leaf.
type DiscoverResp struct {
	Status      Status
	HashVersion uint64
	Matches     []DiscoverMatch
}

// LeavesReq asks an LHAgent to enumerate the leaves of its cached hash
// state. MinVersion, when non-zero, forces a refresh first so the scatter
// set is at least that fresh.
type LeavesReq struct {
	MinVersion uint64
}

// LeafRef names one responsible IAgent and the node hosting it.
type LeafRef struct {
	IAgent ids.AgentID
	Node   platform.NodeID
}

// LeavesResp lists the leaves under the LHAgent's current hash version.
type LeavesResp struct {
	HashVersion uint64
	Leaves      []LeafRef
}

// register the IAgent behaviour with gob: the one core behaviour that crosses
// the wire, as the newborn a split launches on another node (ctx.LaunchAt).
// No core behaviour moves once launched. Encoding type registries are the
// canonical acceptable use of init.
func init() {
	gob.Register(&IAgentBehavior{})
}
