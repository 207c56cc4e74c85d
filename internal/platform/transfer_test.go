package platform

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"agentloc/internal/metrics"
	"agentloc/internal/transport"
)

// homing is a Runner that moves to Home once and stays there.
type homing struct {
	Home NodeID
}

func (h *homing) HandleRequest(*Context, string, []byte) (any, error) { return nil, nil }

func (h *homing) Run(ctx *Context) error {
	if ctx.Node() == h.Home {
		return nil
	}
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return ctx.Move(cctx, h.Home) // not the Lifetime, which the Move ends
}

// TestTransfersAreCounted: a Move counts one migration at its source and one
// transfer in at its destination, a LaunchAt to another node one transfer in,
// and a transfer that does not decode is answered with an error.
func TestTransfersAreCounted(t *testing.T) {
	RegisterBehavior(&homing{})
	RegisterBehavior(&echoBehavior{})
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	reg := metrics.New()
	nodes := make(map[NodeID]*Node)
	for _, id := range []NodeID{"src", "dst"} {
		n, err := NewNode(Config{ID: id, Link: net, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[id] = n
	}
	count := func(name string, node NodeID) uint64 {
		return reg.Snapshot().Counter(name, "node", string(node))
	}
	const migrations, transfersIn = "agentloc_platform_migrations_total", "agentloc_platform_transfers_in_total"

	if err := nodes["src"].Launch("mover", &homing{Home: "dst"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for count(migrations, "src") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !nodes["dst"].Hosts("mover") || nodes["src"].Hosts("mover") {
		t.Fatal("the mover did not arrive at dst")
	}
	for _, c := range []struct {
		name string
		node NodeID
		want uint64
	}{{migrations, "src", 1}, {transfersIn, "dst", 1}, {migrations, "dst", 0}, {transfersIn, "src", 0}} {
		if got := count(c.name, c.node); got != c.want {
			t.Errorf("after a Move: %s{node=%s} = %d, want %d", c.name, c.node, got, c.want)
		}
	}

	if err := nodes["src"].LaunchAt(callCtx(t), "dst", "launched", &echoBehavior{}, 0); err != nil {
		t.Fatal(err)
	}
	if got := count(transfersIn, "dst"); got != 2 {
		t.Errorf("after a LaunchAt: transfers in at dst = %d, want 2", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := nodes["src"].peer.Call(ctx, "dst", kindAgentTransfer, &wireEcho{Text: "not a transfer"}, nil)
	var re *transport.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "bad agent transfer") {
		t.Fatalf("malformed transfer = %v, want the destination's decode error", err)
	}
	if got := count(transfersIn, "dst"); got != 2 {
		t.Errorf("after a malformed transfer: transfers in at dst = %d, want 2", got)
	}
}
