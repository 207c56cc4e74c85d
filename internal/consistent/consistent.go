// Package consistent implements a static consistent-hashing location
// scheme, the comparison point of the paper's related work (§6): "Chord …
// Consistent hashing distributes data items to nodes so that each node
// receives roughly the same number of items. However, in our case, our goal
// is to balance the total workload received at each node as opposed to the
// number of items."
//
// A fixed set of tracker agents is placed on a hash ring (with virtual
// nodes); each mobile agent is tracked by the successor of its id's hash.
// The mapping is static and globally known, so there is no LHAgent, no
// HAgent, and no rehashing — which is exactly its weakness: it balances
// agent *counts*, not request *load*. A few hot agents landing on one
// tracker saturate it, and nothing adapts. The ablation benchmark
// quantifies this against the paper's adaptive mechanism.
package consistent

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"agentloc/internal/centralized"
	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// Ring maps agent ids to trackers by consistent hashing with virtual
// nodes. A Ring is immutable after construction and safe for concurrent
// use.
type Ring struct {
	points []point
}

type point struct {
	hash    uint64
	tracker ids.AgentID
}

// NewRing places each tracker at vnodes positions on the ring. More
// virtual nodes give a more even split of the id space.
func NewRing(trackers []ids.AgentID, vnodes int) (*Ring, error) {
	if len(trackers) == 0 {
		return nil, errors.New("consistent: no trackers")
	}
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{points: make([]point, 0, len(trackers)*vnodes)}
	for _, t := range trackers {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:    ringHash(fmt.Sprintf("%s#%d", t, v)),
				tracker: t,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].tracker < r.points[j].tracker
	})
	return r, nil
}

// Owner returns the tracker responsible for the agent: the first ring
// point at or after the agent's hash, wrapping around.
func (r *Ring) Owner(agent ids.AgentID) ids.AgentID {
	h := ringHash(string(agent))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].tracker
}

// Trackers returns the distinct trackers on the ring.
func (r *Ring) Trackers() []ids.AgentID {
	seen := make(map[ids.AgentID]bool)
	var out []ids.AgentID
	for _, p := range r.points {
		if !seen[p.tracker] {
			seen[p.tracker] = true
			out = append(out, p.tracker)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ringHash hashes a string onto the ring with FNV-1a plus the same fmix64
// avalanche the id space uses.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) // never fails
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Config describes a deployed static-hash scheme: the ring plus where each
// tracker lives. It is gob-encodable so roaming workloads can carry it.
type Config struct {
	// Trackers lists the tracker agents in launch order.
	Trackers []ids.AgentID
	// Nodes maps each tracker to its (static) node.
	Nodes map[ids.AgentID]platform.NodeID
	// VNodes is the virtual-node count used for the ring.
	VNodes int
}

// Service fronts a deployed static-hash scheme.
type Service struct {
	cfg  Config
	ring *Ring
}

// Deploy launches k tracker agents round-robin over the nodes, each with
// the same per-request service time as the other schemes' location agents.
func Deploy(ctx context.Context, nodes []*platform.Node, k, vnodes int, serviceTime time.Duration) (*Service, error) {
	if len(nodes) == 0 {
		return nil, errors.New("consistent: deploy: no nodes")
	}
	if k < 1 {
		return nil, errors.New("consistent: deploy: need at least one tracker")
	}
	cfg := Config{
		Trackers: make([]ids.AgentID, 0, k),
		Nodes:    make(map[ids.AgentID]platform.NodeID, k),
		VNodes:   vnodes,
	}
	for i := 0; i < k; i++ {
		tracker := ids.AgentID(fmt.Sprintf("chash-%d", i))
		node := nodes[i%len(nodes)]
		// The tracker's behaviour is the same location table the
		// centralized scheme uses — the schemes differ only in how many
		// trackers exist and how clients pick one.
		err := node.Launch(tracker, &centralized.AgentBehavior{}, platform.WithServiceTime(serviceTime))
		if err != nil {
			return nil, fmt.Errorf("consistent: deploy %s: %w", tracker, err)
		}
		cfg.Trackers = append(cfg.Trackers, tracker)
		cfg.Nodes[tracker] = node.ID()
	}
	ring, err := NewRing(cfg.Trackers, vnodes)
	if err != nil {
		return nil, err
	}
	return &Service{cfg: cfg, ring: ring}, nil
}

// Config returns the deployed configuration.
func (s *Service) Config() Config { return s.cfg }

// ClientFor returns a protocol client speaking from the given node.
func (s *Service) ClientFor(n *platform.Node) *Client {
	return &Client{caller: core.NodeCaller{N: n}, cfg: s.cfg, ring: s.ring}
}

// NewClient builds a client from a serialized Config (for roaming agents).
func NewClient(caller core.Caller, cfg Config) (*Client, error) {
	ring, err := NewRing(cfg.Trackers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	return &Client{caller: caller, cfg: cfg, ring: ring}, nil
}

// Client implements the shared location-client surface against the static
// scheme: the owner lookup is a local ring computation, then one tracker
// call.
type Client struct {
	caller core.Caller
	cfg    Config
	ring   *Ring
}

// ownerOf resolves the tracker and node for an agent.
func (c *Client) ownerOf(agent ids.AgentID) (ids.AgentID, platform.NodeID, error) {
	tracker := c.ring.Owner(agent)
	node, ok := c.cfg.Nodes[tracker]
	if !ok {
		return "", "", fmt.Errorf("consistent: no node for tracker %s", tracker)
	}
	return tracker, node, nil
}

// Register announces a newly created agent's location.
func (c *Client) Register(ctx context.Context, self ids.AgentID) (core.Assignment, error) {
	return c.report(ctx, core.KindRegister, self)
}

// MoveNotify reports the agent's new location (the caller's node).
func (c *Client) MoveNotify(ctx context.Context, self ids.AgentID, _ core.Assignment) (core.Assignment, error) {
	return c.report(ctx, core.KindUpdate, self)
}

func (c *Client) report(ctx context.Context, kind string, self ids.AgentID) (core.Assignment, error) {
	tracker, node, err := c.ownerOf(self)
	if err != nil {
		return core.Assignment{}, err
	}
	var ack core.Ack
	req := core.UpdateReq{Agent: self, Node: c.caller.LocalNode()}
	if err := c.caller.Go(ctx, node, tracker, kind, req, &ack).Wait(); err != nil {
		return core.Assignment{}, fmt.Errorf("consistent %s %s: %w", kind, self, err)
	}
	return core.Assignment{IAgent: tracker, Node: node}, nil
}

// Deregister removes the agent's entry.
func (c *Client) Deregister(ctx context.Context, self ids.AgentID, _ core.Assignment) error {
	tracker, node, err := c.ownerOf(self)
	if err != nil {
		return err
	}
	var ack core.Ack
	if err := c.caller.Go(ctx, node, tracker, core.KindDeregister, core.DeregisterReq{Agent: self}, &ack).Wait(); err != nil {
		return fmt.Errorf("consistent deregister %s: %w", self, err)
	}
	return nil
}

// Locate returns the current node of the target agent.
func (c *Client) Locate(ctx context.Context, target ids.AgentID) (platform.NodeID, error) {
	tracker, node, err := c.ownerOf(target)
	if err != nil {
		return "", err
	}
	var resp core.LocateResp
	if err := c.caller.Go(ctx, node, tracker, core.KindLocate, core.LocateReq{Agent: target}, &resp).Wait(); err != nil {
		return "", fmt.Errorf("consistent locate %s: %w", target, err)
	}
	if resp.Status == core.StatusUnknownAgent {
		return "", fmt.Errorf("consistent locate %s: %w", target, core.ErrNotRegistered)
	}
	return resp.Node, nil
}
