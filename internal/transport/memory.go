package transport

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/metrics"
)

// LatencyFunc computes the one-way delivery latency of an envelope.
type LatencyFunc func(from, to Addr) time.Duration

// FixedLatency returns a LatencyFunc with constant latency on every
// envelope. A Peer's call to its own address never becomes an envelope
// (Peer.Go), so a call within one node is never charged it.
func FixedLatency(d time.Duration) LatencyFunc {
	return func(Addr, Addr) time.Duration { return d }
}

// LANLatency returns a LatencyFunc that charges d between distinct
// endpoints and nothing for loopback traffic — a message from a node to
// itself never crosses the wire on a real LAN.
func LANLatency(d time.Duration) LatencyFunc {
	return func(from, to Addr) time.Duration {
		if from == to {
			return 0
		}
		return d
	}
}

// NetworkConfig tunes the simulated network.
type NetworkConfig struct {
	// Clock drives latency sleeps. Defaults to the real clock.
	Clock clock.Clock
	// Latency computes per-message delivery delay. Defaults to zero.
	Latency LatencyFunc
	// Jitter adds a uniform random delay in [0, Jitter) to each message.
	Jitter time.Duration
	// DropProb is the probability in [0, 1) that a message is silently
	// dropped, simulating loss.
	DropProb float64
	// Seed seeds the loss/jitter random source; 0 selects a fixed default
	// so simulations are reproducible.
	Seed int64
	// Metrics, when set, counts dropped envelopes into
	// agentloc_transport_network_dropped_total{reason} (reason is "loss"
	// or "partition"). Nil disables drop accounting.
	Metrics *metrics.Registry
}

// Network is an in-process simulated LAN implementing Link. Every message
// is delivered asynchronously after the configured latency; loss and
// partitions can be injected at runtime for failure testing.
type Network struct {
	cfg NetworkConfig

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[Addr]endpoint
	blocked   map[[2]Addr]bool
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup
}

var _ Link = (*Network)(nil)

// NewNetwork creates a simulated network.
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	describeTransportMetrics(cfg.Metrics)
	if cfg.Latency == nil {
		cfg.Latency = FixedLatency(0)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: make(map[Addr]endpoint),
		blocked:   make(map[[2]Addr]bool),
		stop:      make(chan struct{}),
	}
}

// listen implements Link.
func (n *Network) listen(addr Addr, ep endpoint) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return ErrAddrInUse
	}
	n.endpoints[addr] = ep
	return nil
}

// Unlisten implements Link.
func (n *Network) Unlisten(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, addr)
}

// send delivers an envelope to the destination's endpoint on a fresh goroutine
// after the configured latency, unless it is dropped by loss or a partition.
func (n *Network) send(env Envelope) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if _, ok := n.endpoints[env.To]; !ok {
		n.mu.Unlock()
		return ErrUnknownAddr
	}
	if n.blocked[pairKey(env.From, env.To)] {
		n.mu.Unlock()
		// Partitioned: silently dropped, like a real network.
		n.cfg.Metrics.Counter(metricDropped, "reason", "partition").Inc()
		return nil
	}
	if n.cfg.DropProb > 0 && n.rng.Float64() < n.cfg.DropProb {
		n.mu.Unlock()
		n.cfg.Metrics.Counter(metricDropped, "reason", "loss").Inc()
		return nil
	}
	delay := n.cfg.Latency(env.From, env.To)
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	n.wg.Add(1)
	n.mu.Unlock()

	go func() {
		defer n.wg.Done()
		if delay > 0 {
			select {
			case <-n.cfg.Clock.After(delay):
			case <-n.stop:
				return
			}
		} else {
			select {
			case <-n.stop:
				return
			default:
			}
		}
		n.mu.Lock()
		ep, ok := n.endpoints[env.To]
		partitioned := n.blocked[pairKey(env.From, env.To)]
		n.mu.Unlock()
		if partitioned {
			// A partition raised while the envelope was in flight still
			// swallows it.
			n.cfg.Metrics.Counter(metricDropped, "reason", "partition").Inc()
			return
		}
		if ok {
			ep.deliver(env, false)
		}
	}()
	return nil
}

// post implements Link: send never blocks here, so posting is encoding the
// body and sending, with the outcome known at once.
func (n *Network) post(_ context.Context, env Envelope, body any, w sendWaiter) error {
	var err error
	if env.Payload, err = ownPayload(env.Payload, body); err != nil {
		return err
	}
	if err := n.send(env); err != nil {
		return err
	}
	if w != nil {
		w.sendDone(env.Corr, nil, nil)
	}
	return nil
}

// SetDropProb changes the loss probability at runtime — the chaos knob for
// long-running tests and simulations that degrade and heal the network
// mid-flight.
func (n *Network) SetDropProb(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DropProb = p
}

// Partition blocks traffic between a and b in both directions. With a == b
// it blocks nothing: a Peer's call to its own address never reaches the link
// (Peer.Go), so a node cannot be cut off from itself.
func (n *Network) Partition(a, b Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[pairKey(a, b)] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, pairKey(a, b))
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]Addr]bool)
}

// Close implements Link. It stops in-flight deliveries and waits for the
// delivery goroutines to exit.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

// pairKey normalizes an unordered endpoint pair.
func pairKey(a, b Addr) [2]Addr {
	if a > b {
		a, b = b, a
	}
	return [2]Addr{a, b}
}
