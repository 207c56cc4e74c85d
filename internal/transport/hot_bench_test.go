package transport

import (
	"context"
	"sync"
	"testing"

	"agentloc/internal/wire"
)

// hotReq and hotResp are a binary-codec request/response pair the size of a
// locate, so the echo benchmarks and budgets measure the transport and not
// gob.
type hotReq struct{ Agent string }

func (r *hotReq) AppendWire(dst []byte) []byte { return wire.AppendString(dst, r.Agent) }
func (r *hotReq) DecodeWire(d *wire.Dec) error {
	s, err := d.String(1 << 16)
	r.Agent = s
	return err
}

type hotResp struct{ Version uint64 }

func (r *hotResp) AppendWire(dst []byte) []byte { return wire.AppendUvarint(dst, r.Version) }
func (r *hotResp) DecodeWire(d *wire.Dec) error {
	v, err := d.Uvarint()
	r.Version = v
	return err
}

// newEchoPair builds two TCP links with a peer each: the server echoes a
// fixed hotResp from a plain RequestHandler, the client has a route to it.
// One warm-up call leaves the connection dialed.
func newEchoPair(tb testing.TB, clientCfg TCPConfig) (client *Peer) {
	tb.Helper()
	goroutinesReturn(tb)
	srvLink, err := NewTCP(TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srvLink.Close() })
	resp := &hotResp{Version: 4}
	srv, err := NewPeer(srvLink, "echo-server", func(_ context.Context, _ Addr, _ string, payload []byte) (any, error) {
		var req hotReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return resp, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	clientCfg.ListenOn = "127.0.0.1:0"
	clientCfg.Directory = map[Addr]string{"echo-server": srvLink.ListenAddr()}
	cliLink, err := NewTCP(clientCfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cliLink.Close() })
	client, err = NewPeer(cliLink, "echo-client", nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(client.Close)
	releasesAll(tb, client)
	var out hotResp
	if err := client.Call(context.Background(), "echo-server", "echo", &hotReq{Agent: "warm-up"}, &out); err != nil {
		tb.Fatal(err)
	}
	return client
}

// BenchmarkTCPEcho is one caller's round trip between two TCP links: what a
// message costs when nothing shares the connection.
func BenchmarkTCPEcho(b *testing.B) {
	client := newEchoPair(b, TCPConfig{})
	ctx := context.Background()
	req := &hotReq{Agent: "a-0123456-padded-to-24-b"}
	var resp hotResp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Call(ctx, "echo-server", "echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPEchoParallel is eight callers sharing one connection; the
// client's socket writes are counted through the fault injector's wrapping
// conn, so writes/op below 1 is the coalescing at work.
func BenchmarkTCPEchoParallel(b *testing.B) {
	const callers = 8
	f := NewFaults()
	client := newEchoPair(b, TCPConfig{Faults: f})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	before := f.Writes()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			req := &hotReq{Agent: "a-0123456-padded-to-24-b"}
			var resp hotResp
			for i := 0; i < n; i++ {
				if err := client.Call(ctx, "echo-server", "echo", req, &resp); err != nil {
					b.Error(err)
					return
				}
			}
		}(b.N / callers)
	}
	wg.Wait()
	b.StopTimer()
	if ops := (b.N / callers) * callers; ops > 0 {
		b.ReportMetric(float64(f.Writes()-before)/float64(ops), "writes/op")
	}
}
