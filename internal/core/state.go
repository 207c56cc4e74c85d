package core

import (
	"fmt"

	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// State is the hash function state shipped between the HAgent, IAgents and
// LHAgents: the hash tree plus the current node of every IAgent. The HAgent
// bumps Ver on every change — rehashes *and* IAgent relocations (the
// placement extension moves IAgents without touching the tree).
type State struct {
	// Ver is the state version; stale copies are detected by comparing it.
	Ver uint64
	// Tree maps agent ids to IAgent ids.
	Tree *hashtree.Tree
	// Locations maps IAgent ids to the nodes hosting them.
	Locations map[ids.AgentID]platform.NodeID
}

// StateDTO is the gob/JSON wire form of State.
type StateDTO struct {
	Ver       uint64
	Tree      hashtree.DTO
	Locations map[ids.AgentID]platform.NodeID
}

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

// DTO converts the state to its wire form. The location map is copied.
func (s *State) DTO() StateDTO {
	locs := make(map[ids.AgentID]platform.NodeID, len(s.Locations))
	for k, v := range s.Locations {
		locs[k] = v
	}
	return StateDTO{Ver: s.Ver, Tree: s.Tree.DTO(), Locations: locs}
}

// FromDTO rebuilds a State from its wire form.
func FromDTO(d StateDTO) (*State, error) {
	tree, err := hashtree.FromDTO(d.Tree)
	if err != nil {
		return nil, fmt.Errorf("core: state tree: %w", err)
	}
	locs := make(map[ids.AgentID]platform.NodeID, len(d.Locations))
	for k, v := range d.Locations {
		locs[k] = v
	}
	// Every leaf must have a location; extra locations are tolerated (the
	// DTO may race an in-flight dispose) but missing ones are not.
	for _, ia := range tree.IAgents() {
		if _, ok := locs[ids.AgentID(ia)]; !ok {
			return nil, fmt.Errorf("core: state has no location for IAgent %s", ia)
		}
	}
	return &State{Ver: d.Ver, Tree: tree, Locations: locs}, nil
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
