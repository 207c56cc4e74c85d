package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"agentloc/internal/metrics"
)

// counterWant is the value one counter series must read.
type counterWant struct {
	reg    *metrics.Registry
	name   string
	labels []string
	want   uint64
}

// settleCounters waits until every counter reads its wanted value — a reply is
// counted as sent once its post returns, which may be after the call it
// answers has — and fails naming every one that does not.
func settleCounters(t *testing.T, wants []counterWant) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var off []string
		for _, w := range wants {
			if got := w.reg.Snapshot().Counter(w.name, w.labels...); got != w.want {
				off = append(off, fmt.Sprintf("%s%v = %d, want %d", w.name, w.labels, got, w.want))
			}
		}
		if len(off) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters off after 5s:\n%s", strings.Join(off, "\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTransportCountersCountWhatTheyName: every transport counter, read off
// Instrument on a Network and on a pair of TCP links, equals the count the
// calls made imply — sent and received envelopes (requests and replies) per
// kind on either side, a send the link rejects, envelopes the simulated
// network loses or a partition swallows, and calls abandoned at their
// deadline. Each side has a registry of its own, so each count is one side's.
func TestTransportCountersCountWhatTheyName(t *testing.T) {
	for _, name := range []string{"network", "tcp"} {
		t.Run(name, func(t *testing.T) {
			netReg := metrics.New()
			var cliLink, srvLink Link
			var simnet *Network
			if name == "network" {
				simnet = NewNetwork(NetworkConfig{Metrics: netReg})
				t.Cleanup(func() { simnet.Close() })
				cliLink, srvLink = simnet, simnet
			} else {
				srv, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				cli, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0", Directory: map[Addr]string{"server": srv.ListenAddr()}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cli.Close() })
				cliLink, srvLink = cli, srv
			}
			cliReg, srvReg := metrics.New(), metrics.New()
			release := make(chan struct{})
			server, err := NewServingPeer(Instrument(srvLink, srvReg), "server", func(_ context.Context, r Replier, _, kind string, _ []byte) {
				go func() {
					if kind == "block" {
						<-release
					}
					r.Reply(echoResp{Text: kind}, nil)
				}()
			}, srvReg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(server.Close)
			t.Cleanup(func() { close(release) }) // before server.Close, which waits for the handler
			client, err := NewServingPeer(Instrument(cliLink, cliReg), "client", nil, cliReg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(client.Close)
			call := func(timeout time.Duration, to Addr, kind string) error {
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				return client.Call(ctx, to, kind, echoReq{Text: kind}, nil)
			}
			var wants []counterWant
			expect := func(reg *metrics.Registry, name, kind string, want uint64) {
				wants = append(wants, counterWant{reg, name, []string{"kind", kind}, want})
			}

			const k = 5
			for i := 0; i < k; i++ {
				if err := call(5*time.Second, "server", "echo"); err != nil {
					t.Fatal(err)
				}
			}
			for _, reg := range []*metrics.Registry{cliReg, srvReg} {
				expect(reg, metricSent, "echo", k)
				expect(reg, metricReceived, "echo", k)
			}
			settleCounters(t, wants)
			if got := cliReg.Snapshot().HistogramSnap(metricRPCLat, "kind", "echo").Count; got != k {
				t.Errorf("%s{kind=echo} observed %d calls, want %d", metricRPCLat, got, k)
			}

			// A call to an address the link cannot resolve is rejected at
			// once: a send error, not a send, and no timeout.
			if err := call(5*time.Second, "ghost", "lost"); !errors.Is(err, ErrUnknownAddr) {
				t.Fatalf("call to an unknown address = %v, want ErrUnknownAddr", err)
			}
			expect(cliReg, metricSendErrs, "lost", 1)
			expect(cliReg, metricSent, "lost", 0)
			expect(cliReg, metricRPCTmo, "lost", 0)
			settleCounters(t, wants)

			// A request the server sits on: sent, received, abandoned.
			if err := call(30*time.Millisecond, "server", "block"); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("call to a stuck handler = %v, want its deadline", err)
			}
			expect(cliReg, metricSent, "block", 1)
			expect(srvReg, metricReceived, "block", 1)
			expect(cliReg, metricRPCTmo, "block", 1)
			expect(srvReg, metricSent, "block", 0)
			settleCounters(t, wants)

			if simnet != nil {
				// The simulated network accepts what it then loses: each
				// request counts as sent, dropped and timed out, never as
				// received.
				simnet.SetDropProb(1)
				if err := call(30*time.Millisecond, "server", "lossy"); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("call through a lossy network = %v, want its deadline", err)
				}
				simnet.SetDropProb(0)
				simnet.Partition("client", "server")
				if err := call(30*time.Millisecond, "server", "cut"); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("call across a partition = %v, want its deadline", err)
				}
				simnet.Heal("client", "server")
				for _, kind := range []string{"lossy", "cut"} {
					expect(cliReg, metricSent, kind, 1)
					expect(srvReg, metricReceived, kind, 0)
					expect(cliReg, metricRPCTmo, kind, 1)
				}
				for _, reason := range []string{"loss", "partition"} {
					wants = append(wants, counterWant{netReg, metricDropped, []string{"reason", reason}, 1})
				}
			}

			// Nothing but the above was counted: each family's total is the
			// sum of the series expected of it.
			totals := map[*metrics.Registry]map[string]uint64{cliReg: {}, srvReg: {}, netReg: {}}
			for _, w := range wants {
				totals[w.reg][w.name] += w.want
			}
			for reg, sums := range totals {
				for _, name := range []string{metricSent, metricReceived, metricSendErrs, metricRPCTmo, metricDropped} {
					wants = append(wants, counterWant{reg, name, nil, sums[name]})
				}
			}
			settleCounters(t, wants)
		})
	}
}
