package platform

import (
	"context"
	"testing"

	"agentloc/internal/ids"
	"agentloc/internal/transport"
)

// The two benchmarks isolate what the platform adds to a same-node call: the
// dispatch alone (a behaviour that answers on the fast path) and the dispatch
// plus one mailbox round trip (a plain serial behaviour). Request and response
// are nil, so no codec work is in the measurement.

func benchmarkCallAgentLocal(b *testing.B, agent ids.AgentID, behavior Behavior) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	defer net.Close()
	n, err := NewNode(Config{ID: "bench", Link: net})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	if err := n.Launch(agent, behavior); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.CallAgent(ctx, "bench", agent, "echo", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallAgentLocalConcurrent(b *testing.B) {
	benchmarkCallAgentLocal(b, "fast", &concurrentEcho{})
}

func BenchmarkCallAgentLocalSerial(b *testing.B) {
	benchmarkCallAgentLocal(b, "serial", &echoBehavior{})
}
