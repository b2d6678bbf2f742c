// Package memo implements FastSim's primary contribution: memoization of
// the µ-architecture simulator (paper §4).
//
// The p-action cache maps encoded µ-architecture configurations (snapshots
// of the iQ between cycles, §4.2) to chains of simulator *actions* — the
// ways the detailed simulator interacts with the rest of FastSim: advancing
// the cycle counter and retiring instructions, calling the cache simulator
// for loads and stores, consuming branch outcomes from direct execution,
// and signalling rollbacks. Actions whose result can vary (a load's
// interval, a branch's outcome) carry outcome-labelled edges to their
// successors; the final action of each configuration's chain links directly
// to the next configuration, forming the unbroken chains of §4.2.
//
// Fast-forwarding replays these chains instead of running the detailed
// simulator, producing bit-identical statistics. A previously unseen
// outcome (a missing edge) stops fast-forwarding: the detailed simulator is
// reconstructed from the configuration, re-driven through the already-
// performed interactions of the episode, and recorded onward, growing a new
// branch of the action graph exactly as in the paper's Figure 6.
//
// §4.3's replacement policies are all implemented: unbounded growth,
// flush-on-full, a copying collector keeping only configurations and
// actions used since the last collection, and a generational variant.
package memo

import (
	"fmt"

	"fastsim/internal/faultinject"
	"fastsim/internal/stats"
)

// Policy selects the p-action cache replacement policy of §4.3.
type Policy uint8

const (
	// PolicyUnbounded lets the p-action cache grow without limit.
	PolicyUnbounded Policy = iota
	// PolicyFlush discards the entire cache when it exceeds the limit —
	// the paper's recommended "flush on full".
	PolicyFlush
	// PolicyGC keeps only configurations and actions used since the last
	// collection (the paper's copying collector).
	PolicyGC
	// PolicyGenGC is the generational variant: young allocations are
	// collected frequently; survivors are promoted and collected rarely.
	PolicyGenGC
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyUnbounded:
		return "unbounded"
	case PolicyFlush:
		return "flush"
	case PolicyGC:
		return "gc"
	case PolicyGenGC:
		return "gengc"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy converts a policy name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for p := PolicyUnbounded; p <= PolicyGenGC; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("memo: unknown policy %q", s)
}

// Options configures the p-action cache.
type Options struct {
	Policy Policy
	Limit  int // bytes; <= 0 means unlimited (forced for PolicyUnbounded)

	// MajorEvery is, for PolicyGenGC, the number of minor collections
	// between major collections (default 4).
	MajorEvery int

	// Budget, when positive, is a hard memory bound on the p-action cache
	// enforced by watermark-driven guard levels at episode boundaries:
	// crossing the soft watermark (3/4 of Budget) forces collections under
	// any policy (GC pressure); if reclaiming cannot get back under the
	// high watermark (7/8), the engine degrades to detailed-only
	// simulation — no lookups, no recording — until a periodic retry
	// collection frees space. Unlike Limit, which the policy may overshoot
	// (PolicyUnbounded ignores it entirely), Budget holds for every
	// policy; the remaining eighth absorbs the at-most-one-episode
	// allocation between boundary checks. See docs/ROBUSTNESS.md.
	Budget int

	// VerifyRate is the shadow-verification sampling rate in [0, 1]: that
	// fraction of cache hits is re-executed through the detailed simulator
	// (instead of being replayed) with the recorder cross-checking the
	// cached chain action by action. A mismatch quarantines the chain and
	// the run continues on the detailed (ground truth) results. At 1.0
	// every hit is verified and no corrupt chain can ever influence a
	// statistic; sampling is deterministic (every k-th hit), never random.
	VerifyRate float64

	// Inject, when non-nil, arms deterministic fault injection at the
	// memo sites (allocation failure, chain bit flips); tests and the
	// opt-in chaos modes only. Nil costs one pointer check per allocation.
	Inject *faultinject.Injector
}

// DefaultOptions returns an unbounded p-action cache.
func DefaultOptions() Options {
	return Options{Policy: PolicyUnbounded, MajorEvery: 4}
}

// Stats reports memoization activity (the measurements of Tables 4 and 5).
type Stats struct {
	// Static allocation counts (Table 5).
	Configs      uint64 // configurations allocated, cumulative
	Actions      uint64 // actions allocated, cumulative
	Bytes        int    // current p-action cache footprint
	PeakBytes    int    // high-water footprint
	ConfigBytesC uint64 // cumulative bytes of allocated configurations
	// NaiveBytesC is what the configurations would have cost without the
	// paper's §4.2 compression (a flat 16-byte-per-instruction snapshot
	// plus header) — the encoding ablation's comparison figure.
	NaiveBytesC uint64

	// Dynamic behaviour.
	Lookups         uint64 // configuration lookups from detailed mode
	Hits            uint64 // lookups that began fast-forwarding
	EpisodesRecord  uint64 // episodes recorded by the detailed simulator
	EpisodesReplay  uint64 // episodes replayed by fast-forwarding
	ActionsReplayed uint64 // individual actions replayed
	EdgeMisses      uint64 // replays stopped by a previously unseen outcome

	// Instruction attribution (Table 4): retired instructions by mode.
	DetailedInsts uint64
	ReplayInsts   uint64
	// Cycle attribution.
	DetailedCycles uint64
	ReplayCycles   uint64

	// Replacement policy activity.
	Flushes        uint64
	Collections    uint64
	Survivors      uint64 // actions surviving collections, cumulative
	LiveBeforeColl uint64 // live actions at the start of each collection, cumulative

	// Replay chain lengths: actions replayed without stopping for
	// detailed simulation (Table 5's final columns), plus the full
	// distribution.
	ChainCount uint64
	ChainTotal uint64
	ChainMax   uint64
	ChainHist  stats.Histogram

	// Robustness activity (PR: guarded replay). These counters are
	// per-run diagnostics and deliberately excluded from the snapshot
	// format's stats sequence (statsFields).
	EpisodesVerified   uint64 // hits re-executed in detail for shadow verification
	VerifyDivergences  uint64 // verified episodes whose chain mismatched
	Quarantines        uint64 // chains atomically evicted (verify or structural)
	QuarantinedActions uint64 // action nodes evicted by quarantines
	GuardPressure      uint64 // transitions into the GC-pressure guard level
	GuardDegraded      uint64 // transitions into detailed-only degradation
	DegradedEpisodes   uint64 // episodes simulated detached from the cache
}

// SurvivalPct returns the average fraction of the p-action cache surviving
// each copying collection (the paper observed ~18%).
func (s *Stats) SurvivalPct() float64 {
	if s.LiveBeforeColl == 0 {
		return 0
	}
	return 100 * float64(s.Survivors) / float64(s.LiveBeforeColl)
}

// ActionsPerConfig returns the dynamic actions-per-configuration ratio
// (Table 5), counting both replayed and recorded episodes.
func (s *Stats) ActionsPerConfig() float64 {
	episodes := s.EpisodesRecord + s.EpisodesReplay
	if episodes == 0 {
		return 0
	}
	return float64(s.ActionsReplayed+s.recordedActionsDynamic()) / float64(episodes)
}

func (s *Stats) recordedActionsDynamic() uint64 {
	// Every recorded episode executed its actions once while recording.
	return s.Actions
}

// CyclesPerConfig returns the dynamic cycles-per-configuration ratio.
func (s *Stats) CyclesPerConfig() float64 {
	episodes := s.EpisodesRecord + s.EpisodesReplay
	if episodes == 0 {
		return 0
	}
	return float64(s.DetailedCycles+s.ReplayCycles) / float64(episodes)
}

// AvgChain returns the average replay chain length.
func (s *Stats) AvgChain() float64 {
	if s.ChainCount == 0 {
		return 0
	}
	return float64(s.ChainTotal) / float64(s.ChainCount)
}

// DetailedFraction returns Table 4's detailed-instruction fraction.
func (s *Stats) DetailedFraction() float64 {
	t := s.DetailedInsts + s.ReplayInsts
	if t == 0 {
		return 0
	}
	return float64(s.DetailedInsts) / float64(t)
}
