package transport_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/metrics"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// TestAgentCallIsOneEnvelope: a call to an agent is one envelope each way,
// named by the message's own kind. One remote Locate between two nodes on
// instrumented TCP links moves loc.locate's sent and received counters by
// exactly one on either side and its RPC latency histogram by one call; every
// transport series is labelled with the kind of a message a call sent.
func TestAgentCallIsOneEnvelope(t *testing.T) {
	links := make([]*transport.TCP, 2)
	for i := range links {
		l, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		links[i] = l
	}
	links[0].AddRoute("node-1", links[1].ListenAddr())
	links[1].AddRoute("node-0", links[0].ListenAddr())
	regs := []*metrics.Registry{metrics.New(), metrics.New()}
	nodes := make([]*platform.Node, 2)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{
			ID:      platform.NodeID(fmt.Sprintf("node-%d", i)),
			Link:    transport.Instrument(links[i], regs[i]),
			Metrics: regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	cfg := core.DefaultConfig()
	cfg.TMax, cfg.TMin, cfg.IAgentServiceTime = 1e9, 0, 0
	cfg.PlacementNodes = []platform.NodeID{"node-0"} // the leaf lives on node-0
	svc, err := core.Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client := svc.ClientFor(nodes[1])
	const agent = ids.AgentID("roamer")
	if _, err := client.Register(ctx, agent); err != nil {
		t.Fatal(err)
	}
	// The first locate warms node-1's LHAgent; the second is the one counted.
	if _, err := client.Locate(ctx, agent); err != nil {
		t.Fatal(err)
	}

	const kind = core.KindLocate
	type side struct {
		reg        *metrics.Registry
		sent, recv uint64
	}
	read := func(reg *metrics.Registry) side {
		s := reg.Snapshot()
		return side{reg, s.Counter("agentloc_transport_envelopes_sent_total", "kind", kind),
			s.Counter("agentloc_transport_envelopes_received_total", "kind", kind)}
	}
	rpcs := func() uint64 {
		return regs[1].Snapshot().HistogramSnap("agentloc_transport_rpc_latency_seconds", "kind", kind).Count
	}
	// The warm-up's reply is counted before the baseline is read (see below).
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if s := read(regs[0]); s.sent == s.recv {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never counted its reply to the warm-up locate")
		}
	}
	cli, srv, calls := read(regs[1]), read(regs[0]), rpcs()
	if at, err := client.Locate(ctx, agent); err != nil || at != "node-1" {
		t.Fatalf("locate = %s, %v; want node-1", at, err)
	}
	// The server counts its reply once the post returns, which may be after
	// the call it answers has.
	want := []side{{regs[1], cli.sent + 1, cli.recv + 1}, {regs[0], srv.sent + 1, srv.recv + 1}}
	deadline := time.Now().Add(5 * time.Second)
	for got := []side{read(regs[1]), read(regs[0])}; got[0] != want[0] || got[1] != want[1]; got = []side{read(regs[1]), read(regs[0])} {
		if time.Now().After(deadline) {
			t.Fatalf("%s envelopes (client, server) sent/received = %d/%d, %d/%d; want %d/%d, %d/%d",
				kind, got[0].sent, got[0].recv, got[1].sent, got[1].recv, want[0].sent, want[0].recv, want[1].sent, want[1].recv)
		}
		time.Sleep(time.Millisecond)
	}
	if got := rpcs(); got != calls+1 {
		t.Errorf("rpc_latency_seconds{kind=%q} count moved by %d, want 1", kind, got-calls)
	}
	// Every transport series on either node names a message the calls above
	// sent — the hash fetch behind the LHAgent's first whois, the register and
	// the locates — so there is no series for a wrapper kind.
	sent := map[string]bool{core.KindGetHash: true, core.KindRegister: true, kind: true}
	for i, reg := range regs {
		for _, fam := range reg.Snapshot().Families {
			if !strings.HasPrefix(fam.Name, "agentloc_transport_") {
				continue
			}
			for _, s := range fam.Series {
				for _, l := range s.Labels {
					if l.Key == "kind" && !sent[l.Value] {
						t.Errorf("node-%d: %s has a series for kind %q, which no call sent", i, fam.Name, l.Value)
					}
				}
			}
		}
	}
}
