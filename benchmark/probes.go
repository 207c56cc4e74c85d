package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"agentloc/internal/capindex"
	"agentloc/internal/core"
	"agentloc/internal/hashtree"
	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// The probes time calls into one layer's public functions in isolation, so
// a per-layer number exists that no other layer can move. Each takes a few
// hundred milliseconds; sizes shrink under -short.

// timeLoop runs f n times and returns nanoseconds and allocations per call.
func timeLoop(n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

type nopSerial struct{}

func (nopSerial) HandleRequest(*platform.Context, string, []byte) (any, error) { return nil, nil }

type nopConcurrent struct{ nopSerial }

func (nopConcurrent) HandleConcurrent(*platform.Context, string, []byte) (any, bool, error) {
	return nil, true, nil
}

func tcpLink() (*transport.TCP, error) {
	return transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
}

// runProbes returns every probe metric by name.
func runProbes(workDir string, short bool) (map[string]float64, error) {
	scale := 1
	if short {
		scale = 64
	}
	out := map[string]float64{}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	pop := makeIDs(1 << 20 / scale)

	// platform: a call to a no-op behaviour on the caller's own node costs
	// the dispatch alone (concurrent) or the dispatch plus a mailbox hop.
	link, err := tcpLink()
	if err != nil {
		return nil, err
	}
	defer link.Close()
	node, err := platform.NewNode(platform.Config{ID: "probe", Link: link})
	if err != nil {
		return nil, err
	}
	defer node.Close()
	if err := node.Launch("serial", nopSerial{}); err != nil {
		return nil, err
	}
	if err := node.Launch("concurrent", nopConcurrent{}); err != nil {
		return nil, err
	}
	for name, agent := range map[string]ids.AgentID{"platform.dispatch_ns": "concurrent", "platform.mailbox_ns": "serial"} {
		var callErr error
		out[name], _ = timeLoop(20000/scale, func(int) {
			if err := node.CallAgent(ctx, "probe", agent, "nop", nil, nil); err != nil {
				callErr = err
			}
		})
		if callErr != nil {
			return nil, callErr
		}
	}

	// transport: one small binary-codec message echoed between two TCP
	// links, and the first call on a cold link (dial plus hello/helloAck).
	srvLink, err := tcpLink()
	if err != nil {
		return nil, err
	}
	defer srvLink.Close()
	locResp := core.LocateResp{Status: core.StatusOK, Node: "n1", HashVersion: 4}
	echo := func(_ context.Context, _ transport.Addr, _ string, payload []byte) (any, error) {
		var req core.LocateReq
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return locResp, nil
	}
	srv, err := transport.NewPeer(srvLink, "echo-server", echo)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	req := &core.LocateReq{Agent: "a-0123456-padded-to-24-b"}
	var dials []float64
	for i := 0; i < 5; i++ {
		cliLink, err := tcpLink()
		if err != nil {
			return nil, err
		}
		cliLink.AddRoute("echo-server", srvLink.ListenAddr())
		cli, err := transport.NewPeer(cliLink, transport.Addr(fmt.Sprintf("echo-client-%d", i)), nil)
		if err != nil {
			cliLink.Close()
			return nil, err
		}
		var resp core.LocateResp
		start := time.Now()
		err = cli.Call(ctx, "echo-server", "echo", req, &resp)
		dials = append(dials, float64(time.Since(start))/1e6)
		if err == nil && i == 0 {
			ns, allocs := timeLoop(20000/scale, func(int) {
				if e := cli.Call(ctx, "echo-server", "echo", req, &resp); e != nil {
					err = e
				}
			})
			out["transport.echo_rtt_us"], out["transport.echo_allocs"] = ns/1e3, allocs
		}
		cli.Close()
		cliLink.Close()
		if err != nil {
			return nil, fmt.Errorf("echo probe: %w", err)
		}
	}
	out["transport.dial_ms"] = median(dials)

	// wire: encode and decode of the hot request/response pairs.
	reqBytes, err := transport.EncodeV(req, wire.MsgVersion)
	if err != nil {
		return nil, err
	}
	out["wire.locate_req_bytes"] = float64(len(reqBytes))
	var codecErr error
	roundTrip := func(in, out any) {
		b, err := transport.EncodeV(in, wire.MsgVersion)
		if err == nil {
			err = transport.Decode(b, out)
		}
		if err != nil {
			codecErr = err
		}
	}
	out["wire.locate_codec_ns"], out["wire.locate_codec_allocs"] = timeLoop(200000/scale, func(int) {
		var rq core.LocateReq
		var rs core.LocateResp
		roundTrip(req, &rq)
		roundTrip(locResp, &rs)
	})
	batchReq := core.LocateBatchReq{Agents: pop[:batchSize]}
	batchResp := core.LocateBatchResp{Results: make([]core.LocateResp, batchSize)}
	for i := range batchResp.Results {
		batchResp.Results[i] = locResp
	}
	out["wire.batch64_codec_ns"], _ = timeLoop(20000/scale, func(int) {
		var rq core.LocateBatchReq
		var rs core.LocateBatchResp
		roundTrip(batchReq, &rq)
		roundTrip(batchResp, &rs)
	})
	if codecErr != nil {
		return nil, fmt.Errorf("codec probe: %w", codecErr)
	}

	// core: the gob control plane's largest message, a split's handoff.
	handoff := core.HandoffReq{Entries: map[ids.AgentID]platform.NodeID{}, Load: map[ids.AgentID]uint64{}}
	for i, id := range pop[:1<<17/scale] {
		handoff.Entries[id] = nodeID(i % numNodes)
		handoff.Load[id] = 1
	}
	ns, _ := timeLoop(1, func(int) {
		var buf bytes.Buffer
		var back core.HandoffReq
		if err := gob.NewEncoder(&buf).Encode(handoff); err == nil {
			err = gob.NewDecoder(&buf).Decode(&back)
		}
		if err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("handoff codec probe: %w", codecErr)
	}
	out["core.handoff_codec_ms"] = ns / 1e6
	handoff = core.HandoffReq{}

	// loctable: a table the size of the whole population.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	table := loctable.New()
	out["loctable.put_ns"], _ = timeLoop(len(pop), func(i int) { table.Put(pop[i], nodeID(i%numNodes)) })
	runtime.GC()
	runtime.ReadMemStats(&after)
	out["loctable.bytes_per_agent"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(pop))
	misses := 0
	out["loctable.get_ns"], _ = timeLoop(len(pop), func(i int) {
		if _, ok := table.Get(pop[(i*7919)%len(pop)]); !ok {
			misses++
		}
	})
	if misses > 0 {
		return nil, fmt.Errorf("loctable probe: %d misses", misses)
	}
	small := loctable.New()
	for i, id := range pop[:len(pop)/4] {
		small.Put(id, nodeID(i%numNodes))
	}
	ns, _ = timeLoop(1, func(int) {
		data, err := small.Serialize()
		if err == nil {
			_, err = loctable.Deserialize(data)
		}
		if err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("loctable serialize probe: %w", codecErr)
	}
	out["loctable.serialize_ms"] = ns / 1e6

	// hashtree: lookup on a four-leaf tree built the way set-up builds it.
	tree := hashtree.New("iagent-1")
	for i, leaf := range []string{"iagent-1", "iagent-1", "iagent-2"} {
		cands, err := tree.SplitCandidates(leaf, 1)
		if err != nil {
			return nil, err
		}
		if tree, err = tree.ApplySplit(cands[len(cands)-1], fmt.Sprintf("iagent-%d", i+2)); err != nil {
			return nil, err
		}
	}
	bins := pop[:1024]
	out["hashtree.lookup_ns"], _ = timeLoop(200000/scale, func(i int) {
		if _, err := tree.Lookup(bins[i%len(bins)].Binary()); err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("hashtree probe: %w", codecErr)
	}

	// capindex: every agent of a quarter population carries two of the tags.
	index := capindex.New()
	capPop := pop[:len(pop)/4]
	out["capindex.set_ns"], _ = timeLoop(len(capPop), func(i int) {
		index.Set(capPop[i], []string{tagName(i % numTags), tagName((i + 1) % numTags)})
	})
	ns, _ = timeLoop(50, func(i int) {
		if got := index.Match([]string{tagName(i % numTags), tagName((i + 1) % numTags)}); len(got) != len(capPop)/numTags {
			codecErr = fmt.Errorf("capindex probe: %d matches, want %d", len(got), len(capPop)/numTags)
		}
	})
	if codecErr != nil {
		return nil, codecErr
	}
	out["capindex.match_us"] = ns / 1e3

	// snapshot: one WAL append with and without the fsync.
	dir := filepath.Join(workDir, "probe-store")
	defer os.RemoveAll(dir)
	for name, sync := range map[string]bool{"snapshot.append_us": false, "snapshot.append_sync_us": true} {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		store, err := snapshot.Open(dir, nil)
		if err != nil {
			return nil, err
		}
		store.SyncOnAppend = sync
		n := 20000 / scale
		if sync {
			n = 400 / min(scale, 8)
		}
		ns, _ := timeLoop(n, func(i int) {
			rec := snapshot.Record{Op: snapshot.OpPut, IAgent: "iagent-1", Agent: string(pop[i]), Node: "n1", HashVersion: 4}
			if err := store.Append(rec); err != nil {
				codecErr = err
			}
		})
		store.Close()
		if codecErr != nil {
			return nil, fmt.Errorf("snapshot probe: %w", codecErr)
		}
		out[name] = ns / 1e3
	}
	return out, nil
}
