package core

import "agentloc/internal/ids"

// InvalidateLocation drops the client's cached location for the target, if
// any, as acting on a located node that turned out wrong would want: the
// cache never learns that on its own, because a cache hit does no RPC.
func (c *Client) InvalidateLocation(target ids.AgentID) {
	c.cache.invalidate(target)
}
