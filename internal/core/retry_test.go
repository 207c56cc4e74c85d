package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/platform"
	"agentloc/internal/transport"
)

// newBackoffClient builds a Client good enough for exercising the retry
// pacing alone (no caller is ever invoked).
func newBackoffClient(cfg Config) *Client { return NewClient(nil, cfg) }

func TestBackoffDelayBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryBackoffBase = 4 * time.Millisecond
	cfg.RetryBackoffMax = 32 * time.Millisecond
	c := newBackoffClient(cfg)

	if d := c.backoffDelay(0); d != 0 {
		t.Errorf("backoffDelay(0) = %v, want 0 (first attempt is free)", d)
	}
	for attempt := 1; attempt <= 10; attempt++ {
		window := cfg.RetryBackoffBase << (attempt - 1)
		if window > cfg.RetryBackoffMax || window <= 0 {
			window = cfg.RetryBackoffMax
		}
		for i := 0; i < 200; i++ {
			d := c.backoffDelay(attempt)
			if d < 1 {
				t.Fatalf("backoffDelay(%d) = %v, want ≥ 1ns (never an immediate retry)", attempt, d)
			}
			if d > window {
				t.Fatalf("backoffDelay(%d) = %v, want ≤ window %v", attempt, d, window)
			}
		}
	}
}

func TestBackoffDelayJitters(t *testing.T) {
	// Full jitter exists to desynchronize clients staled together by one
	// rehash: repeated draws for the same attempt must not collapse to a
	// single fixed pause.
	cfg := DefaultConfig()
	cfg.RetryBackoffBase = time.Second // wide window → collisions improbable
	c := newBackoffClient(cfg)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 32; i++ {
		seen[c.backoffDelay(4)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 draws produced %d distinct delays; jitter is not jittering", len(seen))
	}
}

func TestBackoffDelayDefaults(t *testing.T) {
	// Zero config falls back to the built-in pacing rather than retrying in
	// a hot loop.
	c := newBackoffClient(Config{})
	for i := 0; i < 100; i++ {
		d := c.backoffDelay(20)
		if d < 1 || d > 250*time.Millisecond {
			t.Fatalf("backoffDelay with zero config = %v, want within (0, 250ms]", d)
		}
	}
}

func TestBackoffUsesInjectedClock(t *testing.T) {
	// The pause must route through Config.Clock so tests control retry
	// pacing without real sleeping.
	fake := clock.NewFake(time.Unix(0, 0))
	cfg := DefaultConfig()
	cfg.Clock = fake
	cfg.RetryBackoffBase = time.Minute // real-sleep here would hang the test
	cfg.RetryBackoffMax = time.Minute
	c := newBackoffClient(cfg)

	done := make(chan error, 1)
	go func() { done <- c.backoff(context.Background(), 3) }()

	deadline := time.Now().Add(5 * time.Second)
	for fake.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backoff never registered with the fake clock")
		}
		time.Sleep(time.Millisecond)
	}
	fake.Advance(time.Minute)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("backoff = %v, want nil after the clock advanced", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backoff did not return after the fake clock advanced")
	}
}

func TestBackoffHonorsContextCancel(t *testing.T) {
	// A caller that gives up mid-pause must not be held for the rest of it.
	fake := clock.NewFake(time.Unix(0, 0))
	cfg := DefaultConfig()
	cfg.Clock = fake
	cfg.RetryBackoffBase = time.Hour
	cfg.RetryBackoffMax = time.Hour
	c := newBackoffClient(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.backoff(ctx, 2) }()
	deadline := time.Now().Add(5 * time.Second)
	for fake.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backoff never registered with the fake clock")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("backoff = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backoff ignored the cancelled context")
	}
}

func TestConfigValidateBackoff(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"negative base", func(c *Config) { c.RetryBackoffBase = -time.Millisecond }, false},
		{"negative max", func(c *Config) { c.RetryBackoffMax = -time.Millisecond }, false},
		{"max below base", func(c *Config) {
			c.RetryBackoffBase = 10 * time.Millisecond
			c.RetryBackoffMax = time.Millisecond
		}, false},
		{"max equals base", func(c *Config) {
			c.RetryBackoffBase = 10 * time.Millisecond
			c.RetryBackoffMax = 10 * time.Millisecond
		}, true},
		{"defaults", func(c *Config) {}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

// A client whose config leaves CallTimeout at zero still bounds its calls, by
// callTimeout's 2s: a Locate whose target's node — which hosts the target's
// IAgent and the HAgent its LHAgent must fetch a hash copy from — the client's
// node cannot reach returns an error instead of waiting for a reply the
// network dropped. The agents' own bound is an hour, so nothing else ends the
// call.
func TestZeroCallTimeoutLocateIsBounded(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	t.Cleanup(func() { net.Close() })
	nodes := make([]*platform.Node, 2)
	for i := range nodes {
		n, err := platform.NewNode(platform.Config{ID: platform.NodeID(fmt.Sprintf("node-%d", i)), Link: net})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	cfg := quietConfig()
	cfg.CallTimeout = time.Hour
	svc, err := Deploy(context.Background(), cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ClientFor(nodes[0]).Register(testCtx(t), "cut-off"); err != nil {
		t.Fatal(err)
	}
	net.Partition(nodes[0].ID().Addr(), nodes[1].ID().Addr())

	ccfg := quietConfig()
	ccfg.CallTimeout = 0
	client := NewClient(NodeCaller{N: nodes[1]}, ccfg)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := client.Locate(context.Background(), "cut-off")
		done <- err
	}()
	select {
	case err := <-done:
		if took := time.Since(start); err == nil || took > ccfg.callTimeout()+time.Second {
			t.Errorf("Locate across a partition returned %v after %v, want an error within %v", err, took, ccfg.callTimeout())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Locate across a partition still waiting after 10s: its calls are unbounded")
	}
}
