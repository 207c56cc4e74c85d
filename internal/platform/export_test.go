package platform

import (
	"context"

	"agentloc/internal/ids"
)

// Ping checks that a node is reachable.
func (n *Node) Ping(ctx context.Context, at NodeID) error {
	return n.peer.Call(ctx, at.Addr(), kindNodePing, nil, nil)
}

// QueueLen reports the agent's current mailbox backlog. Zero for unknown
// agents.
func (n *Node) QueueLen(id ids.AgentID) int {
	n.mu.Lock()
	h, ok := n.agents[id]
	n.mu.Unlock()
	if !ok {
		return 0
	}
	return h.mailbox.Len()
}
