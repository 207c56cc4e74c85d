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

	// Evenness is the acceptable deviation from a perfect 50/50 load
	// split when the HAgent evaluates split candidates (paper §4.1's
	// "even split"). 0.15 accepts splits between 35/65 and 65/35.
	Evenness float64
	// MaxSimpleBits bounds the m of simple splits; if no candidate is
	// even within the bound, the best candidate seen is used.
	MaxSimpleBits int
	// LoadStatsPrefixBits selects the granularity of the load statistics
	// IAgents report when requesting a split (paper §4.1): 0 sends exact
	// per-agent counts; k > 0 groups agents by the first k bits of their
	// binary id, shrinking the report to at most 2^k entries.
	LoadStatsPrefixBits int

	// IAgentServiceTime is the simulated per-request processing cost of
	// IAgents (and of the centralized baseline agent — both are "the same
	// agent" per paper §5). It is what makes an overloaded agent slow.
	IAgentServiceTime time.Duration
	// CallTimeout bounds each protocol RPC.
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

	// PlacementEnabled turns on the locality extension (paper §7): an
	// IAgent migrates toward the node hosting the majority of the agents
	// it serves.
	PlacementEnabled bool
	// PlacementInterval is how often an IAgent evaluates its placement.
	PlacementInterval time.Duration
	// PlacementMajority is the fraction of served agents that must share
	// a node before the IAgent moves there (e.g. 0.5).
	PlacementMajority float64
	// PlacementMinAgents is the minimum served population before
	// placement is considered — moving for two agents is churn.
	PlacementMinAgents int

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
		Evenness:          0.15,
		MaxSimpleBits:     8,
		IAgentServiceTime: time.Millisecond,
		CallTimeout:       10 * time.Second,
		RetryBackoffBase:  5 * time.Millisecond,
		RetryBackoffMax:   250 * time.Millisecond,

		PlacementInterval:  2 * time.Second,
		PlacementMajority:  0.6,
		PlacementMinAgents: 5,
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
	case c.Evenness < 0 || c.Evenness >= 0.5:
		return errors.New("core: config: Evenness must be in [0, 0.5)")
	case c.MaxSimpleBits < 1:
		return errors.New("core: config: MaxSimpleBits must be ≥ 1")
	case c.CallTimeout <= 0:
		return errors.New("core: config: CallTimeout must be positive")
	case c.RetryBackoffBase < 0:
		return errors.New("core: config: RetryBackoffBase must be non-negative")
	case c.RetryBackoffMax < 0:
		return errors.New("core: config: RetryBackoffMax must be non-negative")
	case c.RetryBackoffBase > 0 && c.RetryBackoffMax > 0 && c.RetryBackoffMax < c.RetryBackoffBase:
		return fmt.Errorf("core: config: RetryBackoffMax %v must be ≥ RetryBackoffBase %v", c.RetryBackoffMax, c.RetryBackoffBase)
	case c.PlacementEnabled && c.PlacementInterval <= 0:
		return errors.New("core: config: PlacementInterval must be positive when placement is enabled")
	case c.PlacementEnabled && (c.PlacementMajority <= 0 || c.PlacementMajority > 1):
		return errors.New("core: config: PlacementMajority must be in (0, 1]")
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

// LHAgentID returns the well-known id of the LHAgent at a node. The paper
// places exactly one LHAgent per node.
func LHAgentID(node platform.NodeID) ids.AgentID {
	return ids.AgentID("lhagent@" + string(node))
}
