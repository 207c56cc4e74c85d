package core

import (
	"errors"
	"fmt"
	"time"

	"agentloc/internal/clock"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
)

// Config carries the mechanism's tunables. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// HAgent is the id of the hash agent holding the primary copy.
	HAgent ids.AgentID
	// HAgentNode is the (static) node hosting the HAgent. The paper keeps
	// the HAgent's location well known.
	HAgentNode platform.NodeID

	// TMax is the request rate (messages/second) above which an IAgent
	// asks the HAgent to split it (paper §4).
	TMax float64
	// TMin is the request rate below which an IAgent asks to be merged.
	TMin float64
	// RateWindow is the sliding window over which IAgents estimate their
	// request rate.
	RateWindow time.Duration
	// CheckInterval is how often an IAgent compares its rate against the
	// thresholds.
	CheckInterval time.Duration
	// MergeGrace is how long an IAgent must have existed (and stayed
	// under TMin) before it may request a merge — it stops fresh IAgents
	// from collapsing before load reaches them.
	MergeGrace time.Duration

	// IAgentServiceTime is the simulated per-request processing cost of
	// IAgents (and of the centralized baseline agent — both are "the same
	// agent" per paper §5). It is what makes an overloaded agent slow.
	IAgentServiceTime time.Duration
	// CallTimeout bounds each protocol RPC, and each fan-out's calls between
	// them. Zero selects 2s (callTimeout); Validate, which every deployed
	// agent's config passes, wants it set.
	CallTimeout time.Duration

	// RetryBackoffBase sizes the pause between §4.3 refresh-and-retry
	// rounds: attempt n draws a full-jitter delay from an exponentially
	// growing window base·2^(n-1), capped at RetryBackoffMax. Jitter
	// desynchronizes clients that went stale together (a rehash staled
	// every cached copy at once), so the retries spread out instead of
	// storming the IAgent in lockstep. Zero selects 5ms. Experiment runs
	// scale it with their time scale (see experiment.Params).
	RetryBackoffBase time.Duration
	// RetryBackoffMax caps the backoff window. Zero selects 50× the base.
	RetryBackoffMax time.Duration
	// Clock supplies the timers behind the retry backoff. Nil selects the
	// wall clock; tests inject a fake clock to control retries
	// deterministically.
	Clock clock.Clock

	// PlacementNodes are the nodes eligible to host newly created
	// IAgents, used round-robin. Deploy fills it with all nodes when
	// empty.
	PlacementNodes []platform.NodeID

	// HAgentReplicas are standby HAgents the primary pushes every state
	// change to (the §7 fault-tolerance extension).
	HAgentReplicas []HAgentRef
	// HAgentFallbacks are the HAgents LHAgents fail over to for reads
	// when the primary is unreachable; typically the same refs as
	// HAgentReplicas.
	HAgentFallbacks []HAgentRef

	// HeartbeatInterval turns on the crash-tolerance subsystem: IAgents
	// heartbeat the HAgent on this interval, the HAgent sweeps leases on
	// it, replicas watch the primary's lease with it, and every IAgent
	// pushes its location-table delta to its sibling leaf on it. Zero (the
	// default) disables failure detection, checkpointing and automatic
	// takeover entirely.
	HeartbeatInterval time.Duration
	// SuspectAfterMisses is how many consecutive missed heartbeats expire
	// an IAgent's lease. The detector probes a suspect directly before
	// declaring it failed. Zero selects 3.
	SuspectAfterMisses int

	// EagerPropagation makes the HAgent push every new hash state to all
	// LHAgents immediately instead of the paper's on-demand refresh. It
	// exists for the ablation benchmark: the paper argues on-demand is
	// the right default, and the bench quantifies the trade.
	EagerPropagation bool

	// LocateCacheTTL bounds the age of client-side location cache entries;
	// zero (the default) disables the cache entirely. Entries are also
	// version-fenced: a hash-version bump observed from any reply
	// invalidates every entry cached under an older version, and any
	// not-here or stale-version reply drops the entry and falls through to
	// the §4.3 refresh-and-retry loop — the server stays authoritative.
	LocateCacheTTL time.Duration
	// LocateCacheSize caps the number of cached locations per client.
	// Zero selects 4096.
	LocateCacheSize int
}

// DefaultConfig returns the configuration used by the paper's experiments:
// Tmax = 50 and Tmin = 5 messages per second (the published values lost
// their digits to OCR; "5 and 5" is reconstructed as 50/5 — see
// EXPERIMENTS.md).
func DefaultConfig() Config {
	return Config{
		HAgent:            "hagent",
		TMax:              50,
		TMin:              5,
		RateWindow:        time.Second,
		CheckInterval:     200 * time.Millisecond,
		MergeGrace:        2 * time.Second,
		IAgentServiceTime: time.Millisecond,
		CallTimeout:       10 * time.Second,
		RetryBackoffBase:  5 * time.Millisecond,
		RetryBackoffMax:   250 * time.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.HAgent == "":
		return errors.New("core: config: empty HAgent id")
	case c.TMax <= 0:
		return errors.New("core: config: TMax must be positive")
	case c.TMin < 0 || c.TMin >= c.TMax:
		return fmt.Errorf("core: config: TMin %v must be in [0, TMax %v)", c.TMin, c.TMax)
	case c.RateWindow <= 0:
		return errors.New("core: config: RateWindow must be positive")
	case c.CheckInterval <= 0:
		return errors.New("core: config: CheckInterval must be positive")
	case c.CallTimeout <= 0:
		return errors.New("core: config: CallTimeout must be positive")
	case c.RetryBackoffBase < 0:
		return errors.New("core: config: RetryBackoffBase must be non-negative")
	case c.RetryBackoffMax < 0:
		return errors.New("core: config: RetryBackoffMax must be non-negative")
	case c.RetryBackoffBase > 0 && c.RetryBackoffMax > 0 && c.RetryBackoffMax < c.RetryBackoffBase:
		return fmt.Errorf("core: config: RetryBackoffMax %v must be ≥ RetryBackoffBase %v", c.RetryBackoffMax, c.RetryBackoffBase)
	case c.HeartbeatInterval < 0:
		return errors.New("core: config: HeartbeatInterval must be non-negative")
	case c.SuspectAfterMisses < 0:
		return errors.New("core: config: SuspectAfterMisses must be non-negative")
	case c.LocateCacheTTL < 0:
		return errors.New("core: config: LocateCacheTTL must be non-negative")
	case c.LocateCacheSize < 0:
		return errors.New("core: config: LocateCacheSize must be non-negative")
	default:
		return nil
	}
}

// callTimeout is the bound on one call, or on one fan-out's calls between
// them: CallTimeout, or 2s when it is unset, so that no call waits as long as
// the link allows.
func (c Config) callTimeout() time.Duration {
	if c.CallTimeout > 0 {
		return c.CallTimeout
	}
	return 2 * time.Second
}

// LHAgentID returns the well-known id of the LHAgent at a node. The paper
// places exactly one LHAgent per node.
func LHAgentID(node platform.NodeID) ids.AgentID {
	return ids.AgentID("lhagent@" + string(node))
}
