package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
)

// durableResult is the outcome of the crash-and-recover check.
type durableResult struct {
	RecoverMS float64
	Checked   uint64
	Wrong     uint64
	Errors    []string
}

// walSizes records the length of every WAL file under the stores. Taken
// after the last ack, with SyncOnAppend on, it is the fsynced length.
func (c *cluster) walSizes() (map[string]int64, error) {
	sizes := map[string]int64{}
	for i := range c.stores {
		paths, err := filepath.Glob(filepath.Join(c.dir, string(nodeID(i)), "wal-*.log"))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				return nil, err
			}
			sizes[p] = fi.Size()
		}
	}
	return sizes, nil
}

// verifyDurable is the durability check riding move_durable: crash all three
// nodes, cut every WAL back to its length at the last ack (a killed process
// keeps the OS cache, a power loss does not), reopen the stores, recover each
// node and locate, from a cold client, every agent the window moved plus a
// sample of the rest. Each must be where its last acked update put it.
func (c *cluster) verifyDurable(ctx context.Context) (*durableResult, error) {
	sizes, err := c.walSizes()
	if err != nil {
		return nil, err
	}
	c.stopNodes()
	for p, n := range sizes {
		if err := os.Truncate(p, n); err != nil {
			return nil, err
		}
	}

	res := &durableResult{}
	start := time.Now()
	if err := c.bootNodes(); err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		if _, err := core.RecoverNode(n, c.cfg); err != nil {
			return nil, fmt.Errorf("recover %s: %w", n.ID(), err)
		}
		if lh := core.LHAgentID(n.ID()); !n.Hosts(lh) {
			if err := n.Launch(lh, &core.LHAgentBehavior{Cfg: c.cfg}); err != nil {
				return nil, err
			}
		}
	}
	res.RecoverMS = float64(time.Since(start)) / 1e6

	client := c.svc.ClientFor(c.nodes[1])
	var batch []ids.AgentID
	var batchI []int
	flush := func() error {
		got, err := client.LocateBatch(ctx, batch)
		if err != nil {
			return fmt.Errorf("cold locate: %w", err)
		}
		for k, i := range batchI {
			res.Checked++
			word := c.model[i].Load()
			want := modelAcked(word)
			if node, ok := got[batch[k]]; !ok || !plausible(word, word, nodeIndex(node)) {
				res.Wrong++
				if len(res.Errors) < 5 {
					res.Errors = append(res.Errors, fmt.Sprintf("after recovery %s is at %q, last acked at %s", batch[k], node, nodeID(want)))
				}
			}
		}
		batch, batchI = batch[:0], batchI[:0]
		return nil
	}
	for i := range c.ids {
		if modelSeq(c.model[i].Load()) == 0 && i%64 != 0 {
			continue
		}
		batch, batchI = append(batch, c.ids[i]), append(batchI, i)
		if len(batch) == 1024 {
			if err := flush(); err != nil {
				return res, err
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return res, err
		}
	}
	return res, nil
}
