package obs

import (
	"fmt"
	"sort"
	"strings"

	"fastsim/internal/stats"
)

// Canonical metric names. Components register under these so the sampler
// (and any external consumer) can find them; see docs/OBSERVABILITY.md.
const (
	MetricCycle         = "core.cycle"
	MetricRetiredInsts  = "core.retired_insts"
	MetricRetiredLoads  = "core.retired_loads"
	MetricRetiredStores = "core.retired_stores"

	MetricCacheLoads      = "cache.loads"
	MetricL1Hits          = "cache.l1_hits"
	MetricL1Misses        = "cache.l1_misses"
	MetricL2Hits          = "cache.l2_hits"
	MetricL2Misses        = "cache.l2_misses"
	MetricCacheStores     = "cache.stores"
	MetricCacheWritebacks = "cache.writebacks"
	MetricLoadLatency     = "cache.load_latency" // histogram

	MetricBPredPredicts    = "bpred.predictions"
	MetricBPredMispredicts = "bpred.mispredicts"

	MetricDirectInsts    = "direct.insts"
	MetricWrongPathInsts = "direct.wrong_path_insts"
	MetricRollbacks      = "direct.rollbacks"
	MetricCheckpoints    = "direct.checkpoints"

	MetricMemoConfigs        = "memo.configs"
	MetricMemoActions        = "memo.actions"
	MetricMemoBytes          = "memo.bytes"
	MetricMemoLookups        = "memo.lookups"
	MetricMemoHits           = "memo.hits"
	MetricMemoEpisodesRecord = "memo.episodes_record"
	MetricMemoEpisodesReplay = "memo.episodes_replay"
	MetricMemoDetailedInsts  = "memo.detailed_insts"
	MetricMemoReplayInsts    = "memo.replay_insts"
	MetricMemoChainHist      = "memo.chain_length" // histogram

	MetricMemoQuarantines       = "memo.quarantine.count"
	MetricMemoQuarantinedActs   = "memo.quarantine.evicted_actions"
	MetricMemoVerifyEpisodes    = "memo.verify.episodes"
	MetricMemoVerifyDivergences = "memo.verify.divergences"

	MetricGuardLevel       = "guard.level"
	MetricGuardBudgetBytes = "guard.budget_bytes"
	MetricGuardDegraded    = "guard.degraded_episodes"

	MetricIQDepth    = "uarch.iq_depth"
	MetricUarchCycle = "uarch.cycle"
)

// Registry is a flat namespace of named metrics. Counters and gauges are
// both registered as float64-valued read callbacks — the registry never
// owns simulation state, it only knows how to read it, which is what keeps
// registration free on the simulator's hot paths. Histograms are registered
// by reference.
//
// A Registry is confined to the simulation goroutine; it is not safe for
// concurrent use (the heartbeat goroutine deliberately reads only published
// atomic copies, never the registry).
type Registry struct {
	funcs map[string]func() float64
	hists map[string]*stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		funcs: make(map[string]func() float64),
		hists: make(map[string]*stats.Histogram),
	}
}

// Gauge registers a read callback under name. Re-registering a name
// replaces the previous callback — components whose lifetime is shorter
// than the run (the detailed pipeline under memoization is rebuilt at every
// replay stop) re-register on reconstruction.
func (r *Registry) Gauge(name string, f func() float64) {
	if r == nil {
		return
	}
	r.funcs[name] = f
}

// Counter registers a monotonically increasing uint64 by address.
func (r *Registry) Counter(name string, c *uint64) {
	r.Gauge(name, func() float64 { return float64(*c) })
}

// Histogram registers a histogram by reference.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	if r == nil {
		return
	}
	r.hists[name] = h
}

// Value reads a registered counter or gauge; unregistered names read 0, so
// consumers degrade gracefully when a component is absent (e.g. memo.*
// metrics on a SlowSim run).
func (r *Registry) Value(name string) float64 {
	if r == nil {
		return 0
	}
	if f := r.funcs[name]; f != nil {
		return f()
	}
	return 0
}

// Hist returns a registered histogram, or nil.
func (r *Registry) Hist(name string) *stats.Histogram {
	if r == nil {
		return nil
	}
	return r.hists[name]
}

// Names returns all registered metric names, sorted, histograms included.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.funcs)+len(r.hists))
	for n := range r.funcs {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot reads every counter and gauge at once.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	m := make(map[string]float64, len(r.funcs))
	//fastsim:order-independent: builds a map, whose content is order-free; ordered consumers go through Names(), which sorts
	for n, f := range r.funcs {
		m[n] = f()
	}
	return m
}

// Render formats a sorted dump of the registry for debugging.
func (r *Registry) Render() string {
	var b strings.Builder
	for _, n := range r.Names() {
		if h := r.hists[n]; h != nil {
			fmt.Fprintf(&b, "%-28s n=%d mean=%.1f p95<=%d\n", n, h.Count(), h.Mean(), h.Quantile(0.95))
			continue
		}
		fmt.Fprintf(&b, "%-28s %.0f\n", n, r.funcs[n]())
	}
	return b.String()
}
