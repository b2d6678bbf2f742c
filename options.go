package fastsim

import (
	"io"

	"fastsim/internal/core"
	"fastsim/internal/snapshot"
)

// Option configures a simulation run. Options apply in order on top of
// DefaultConfig, so later options win; WithConfig replaces the whole
// configuration and is therefore usually first, if present at all.
type Option func(*Config)

// Configuration sentinels, matched with errors.Is.
var (
	// ErrBadConfig wraps every configuration-validation failure.
	ErrBadConfig = core.ErrBadConfig
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version. Run only returns it under WithSnapshotStrict; the
	// default is a cold-start fallback recorded in Result.Snapshot.Warning.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotCorrupt reports a truncated or bit-damaged snapshot file.
	// Like ErrSnapshotVersion it only surfaces under WithSnapshotStrict.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
)

// WithConfig replaces the entire configuration, for callers migrating from
// the struct-based API or holding a fully built Config. Later options still
// apply on top of it.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithMemoize enables or disables fast-forwarding: true is FastSim (the
// default), false is the SlowSim baseline.
func WithMemoize(on bool) Option {
	return func(c *Config) { c.Memoize = on }
}

// WithPolicy selects the p-action cache replacement policy (§4.3) and its
// byte limit; limit <= 0 means unlimited (forced for PolicyUnbounded).
func WithPolicy(p MemoPolicy, limit int) Option {
	return func(c *Config) {
		c.Memo.Policy = p
		c.Memo.Limit = limit
	}
}

// WithMemoOptions replaces the full p-action cache configuration, for
// settings beyond WithPolicy (e.g. the generational major-collection
// cadence).
func WithMemoOptions(o MemoOptions) Option {
	return func(c *Config) { c.Memo = o }
}

// WithPipeline replaces the out-of-order pipeline parameters.
func WithPipeline(p PipelineParams) Option {
	return func(c *Config) { c.Uarch = p }
}

// WithCache replaces the cache-hierarchy configuration.
func WithCache(cc CacheConfig) Option {
	return func(c *Config) { c.Cache = cc }
}

// WithBPred replaces the branch-predictor configuration.
func WithBPred(b core.BPredConfig) Option {
	return func(c *Config) { c.BPred = b }
}

// WithObserver attaches the observability layer (metrics, sampler, events,
// span trace, pipetrace, heartbeat); it is read-only, so the Result is
// unchanged by it. The run closes the Observer, and a sink write failure
// on an otherwise successful run becomes the run error.
func WithObserver(o *Observer) Option {
	return func(c *Config) { c.Observer = o }
}

// WithMemoGraphDot writes the final p-action graph in Graphviz DOT format
// to w after a memoized run; maxConfigs bounds the export (0 means 64).
func WithMemoGraphDot(w io.Writer, maxConfigs int) Option {
	return func(c *Config) {
		c.MemoGraphDot = w
		c.MemoGraphMax = maxConfigs
	}
}

// WithMaxCycles bounds the simulation (0 keeps the large default).
func WithMaxCycles(n uint64) Option {
	return func(c *Config) { c.MaxCycles = n }
}

// WithSnapshot persists the p-action cache at path across runs: load it
// before simulating (cold start if the file is missing or rejected) and
// save it back afterwards. Equivalent to WithSnapshotLoad(path) plus
// WithSnapshotSave(path).
func WithSnapshot(path string) Option {
	return func(c *Config) {
		c.SnapshotLoad = path
		c.SnapshotSave = path
	}
}

// WithSnapshotLoad warm-starts the p-action cache from the snapshot at
// path. A missing file is a silent cold start; a corrupt, version-skewed
// or mismatched file falls back to a cold start with
// Result.Snapshot.Warning set — the Result is bit-identical either way.
func WithSnapshotLoad(path string) Option {
	return func(c *Config) { c.SnapshotLoad = path }
}

// WithSnapshotSave writes the final p-action cache to path after a
// successful run, atomically (temp file + fsync + rename). Cancelled or
// failed runs write nothing.
func WithSnapshotSave(path string) Option {
	return func(c *Config) { c.SnapshotSave = path }
}

// WithSnapshotStrict turns rejected snapshot loads into run errors
// (ErrSnapshotCorrupt, ErrSnapshotVersion, ...) instead of cold-start
// fallbacks — for benchmarks and CI jobs that must know their warm start
// actually happened.
func WithSnapshotStrict() Option {
	return func(c *Config) { c.SnapshotStrict = true }
}

// WithMemoBudget sets a hard memory bound (bytes) on the p-action cache,
// enforced for every replacement policy by watermark-driven guard levels:
// above 3/4 of the budget collections are forced; if reclaiming cannot get
// back under 7/8 the engine degrades to detailed-only simulation until a
// retry collection frees space. Unlike WithPolicy's limit — which a policy
// may overshoot or ignore — the budget always holds: Result.Memo.PeakBytes
// never exceeds it, and the Result stays bit-identical. n <= 0 disables the
// guard. See docs/ROBUSTNESS.md.
func WithMemoBudget(n int) Option {
	return func(c *Config) { c.Memo.Budget = n }
}

// WithShadowVerify re-executes the given fraction of cache hits through the
// detailed simulator (instead of replaying them), cross-checking the cached
// chain action by action. A divergence quarantines the chain — it is
// atomically evicted and re-memoized from scratch — and the run continues
// on the detailed (ground-truth) results. rate 1 verifies every hit, so no
// corrupt chain can ever influence a statistic; sampling is deterministic
// (every k-th hit), never random. See docs/ROBUSTNESS.md.
func WithShadowVerify(rate float64) Option {
	return func(c *Config) { c.Memo.VerifyRate = rate }
}

// WithSharedCache attaches a process-wide shared p-action cache: before
// simulating, the run imports the graph published for its (program, machine)
// fingerprint — a warm start exactly like WithSnapshotLoad, but fed by
// concurrent runs instead of a file — and after a successful run it offers
// its merged graph back under epoch-based publication. A run that
// quarantined any chain instead poisons the epoch it imported, so a corrupt
// chain is never shared. Sharing changes speed and Result.Memo accounting,
// never the simulation Result: warm starts are bit-identical to cold runs.
// An explicit WithSnapshotLoad takes precedence over the shared cache.
// A nil sc is ignored. See docs/SERVER.md.
func WithSharedCache(sc *SharedCache) Option {
	return func(c *Config) { c.Shared = sc }
}

// WithFaultInjection arms deterministic fault injection at every site the
// run passes through: memo allocation failures, chain bit flips, and
// snapshot IO faults. For chaos testing only — see NewChaosInjector and
// docs/ROBUSTNESS.md. Every injected fault ends in a self-healed
// bit-identical Result or a typed error, never a silently wrong statistic.
func WithFaultInjection(inj *FaultInjector) Option {
	return func(c *Config) { c.FaultInject = inj }
}

// buildConfig folds opts over DefaultConfig.
func buildConfig(opts []Option) Config {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}
