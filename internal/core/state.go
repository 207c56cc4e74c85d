package core

import (
	"fmt"
	"sort"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/wire"
)

// State is the hash function state shipped between the HAgent, IAgents and
// LHAgents: the hash tree plus the node of every IAgent. The HAgent bumps Ver
// on every split, merge and takeover, and once more when it recovers fenced
// from its store. An IAgent never moves once launched, so an entry of
// Locations changes only with the tree.
type State struct {
	// Ver is the state version; stale copies are detected by comparing it.
	Ver uint64
	// Tree maps agent ids to IAgent ids.
	Tree *hashtree.Tree
	// Locations maps IAgent ids to the nodes hosting them.
	Locations map[ids.AgentID]platform.NodeID
}

// StateDTO is a State in its one encoded form: the bytes every message that
// carries a hash state ships as one gob byte field, and the state prefix of
// the HAgent and IAgent snapshot sections.
//
//	uvarint  state version
//	bytes    the tree, as hashtree.Serialize frames it
//	uvarint  location count, then (IAgent, node) string pairs sorted by IAgent
type StateDTO []byte

// Version returns the state's hash version. A nil state has version 0,
// which is older than every real state.
func (s *State) Version() uint64 {
	if s == nil || s.Tree == nil {
		return 0
	}
	return s.Ver
}

// OwnerOf resolves the IAgent responsible for the agent and that IAgent's
// node.
func (s *State) OwnerOf(agent ids.AgentID) (ids.AgentID, platform.NodeID, error) {
	return s.OwnerOfHash(agent.Hash64())
}

// OwnerOfHash is OwnerOf for a caller that already holds the agent's
// ids.Hash64 (an IAgent hashes an id once for this and for its table probe).
func (s *State) OwnerOfHash(hash uint64) (ids.AgentID, platform.NodeID, error) {
	if s == nil || s.Tree == nil {
		return "", "", fmt.Errorf("core: no hash state")
	}
	owner, err := s.Tree.LookupHash(hash)
	if err != nil {
		return "", "", fmt.Errorf("core: owner of hash %#x: %w", hash, err)
	}
	iagent := ids.AgentID(owner)
	node, ok := s.Locations[iagent]
	if !ok {
		return "", "", fmt.Errorf("core: IAgent %s has no recorded location", iagent)
	}
	return iagent, node, nil
}

// DTO encodes the state.
func (s *State) DTO() StateDTO { return appendState(nil, s) }

// FromDTO decodes a state. Every error is a typed wire error.
func FromDTO(d StateDTO) (*State, error) {
	dec := wire.NewDec(d)
	st, err := decodeState(dec)
	if err == nil {
		err = dec.Done()
	}
	if err != nil {
		return nil, fmt.Errorf("core: hash state: %w", err)
	}
	return st, nil
}

func appendState(dst []byte, st *State) []byte {
	dst = wire.AppendUvarint(dst, st.Ver)
	dst = wire.AppendBytes(dst, st.Tree.Serialize())
	dst = wire.AppendUvarint(dst, uint64(len(st.Locations)))
	ias := make([]string, 0, len(st.Locations))
	for ia := range st.Locations {
		ias = append(ias, string(ia))
	}
	sort.Strings(ias)
	for _, ia := range ias {
		dst = wire.AppendString(dst, ia)
		dst = wire.AppendString(dst, string(st.Locations[ids.AgentID(ia)]))
	}
	return dst
}

// decodeState reads a state off d. Every leaf must have a location; extra
// locations are tolerated (the state may race an in-flight dispose).
func decodeState(d *wire.Dec) (*State, error) {
	ver, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	treeBytes, err := d.Bytes(wire.MaxFrameLen)
	if err != nil {
		return nil, err
	}
	tree, err := hashtree.Deserialize(treeBytes)
	if err != nil {
		return nil, err
	}
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: impossible location count %d", wire.ErrCorrupt, n)
	}
	locs := make(map[ids.AgentID]platform.NodeID, n)
	for i := uint64(0); i < n; i++ {
		ia, err := d.String(wire.MaxIDLen)
		if err != nil {
			return nil, err
		}
		node, err := d.String(wire.MaxIDLen)
		if err != nil {
			return nil, err
		}
		locs[ids.AgentID(ia)] = platform.NodeID(node)
	}
	for _, ia := range tree.IAgents() {
		if _, ok := locs[ids.AgentID(ia)]; !ok {
			return nil, fmt.Errorf("%w: state has no location for IAgent %s", wire.ErrCorrupt, ia)
		}
	}
	return &State{Ver: ver, Tree: tree, Locations: locs}, nil
}

// affectedIAgents returns the IAgents whose served pattern differs between
// two tree versions: leaves added, removed, or re-labeled. These are the
// agents the HAgent must notify after a rehash; all others keep serving
// exactly the same id space (the locality property of paper §2.1).
func affectedIAgents(oldTree, newTree *hashtree.Tree) []ids.AgentID {
	var out []ids.AgentID
	for _, ia := range oldTree.IAgents() {
		if !sameLeaf(oldTree, newTree, ia) {
			out = append(out, ids.AgentID(ia))
		}
	}
	for _, ia := range newTree.IAgents() {
		if !oldTree.Contains(ia) {
			out = append(out, ids.AgentID(ia))
		}
	}
	return out
}

// sameLeaf reports whether the IAgent serves the same id space — owns a leaf
// with the same hyper-label — in both trees.
func sameLeaf(a, b *hashtree.Tree, iagent string) bool {
	la, errA := a.LeafOf(iagent)
	lb, errB := b.LeafOf(iagent)
	return errA == nil && errB == nil && la.HyperLabelString() == lb.HyperLabelString()
}
