// Package core assembles FastSim's components into runnable simulators:
//
//   - SlowSim: speculative direct-execution driving the detailed
//     µ-architecture and cache simulators — FastSim with memoization
//     disabled, exactly the paper's SlowSim baseline.
//   - FastSim: the same engines plus the fast-forwarding memoization layer
//     (internal/memo). By the paper's central claim, FastSim produces
//     bit-identical statistics to SlowSim while running several times
//     faster.
package core

import (
	"io"

	"fastsim/internal/bpred"
	"fastsim/internal/cachesim"
	"fastsim/internal/faultinject"
	"fastsim/internal/memo"
	"fastsim/internal/obs"
	"fastsim/internal/uarch"
)

// Config selects the processor model and simulation options.
type Config struct {
	Uarch uarch.Params    // pipeline parameters (Table 1)
	Cache cachesim.Config // cache hierarchy parameters (Table 1)
	BPred BPredConfig     // branch predictor (default: the paper's 2-bit/512 BHT)

	Memoize bool         // enable fast-forwarding (FastSim vs SlowSim)
	Memo    memo.Options // p-action cache policy and size limit

	// Observer, when non-nil, attaches the observability layer: a metrics
	// registry every component registers into, an interval time-series
	// sampler, a structured event stream, a span trace, a pipetrace and a
	// progress heartbeat. It is strictly read-only — Result is
	// bit-identical with or without it. The run owns it from here on: Run
	// closes it on every path, and a sink write failure on an otherwise
	// successful run surfaces as the run error.
	Observer *obs.Observer

	// MemoGraphDot, when non-nil, receives the final p-action graph in
	// Graphviz DOT format after a memoized run (paper Figure 6).
	MemoGraphDot io.Writer
	// MemoGraphMax bounds the exported configurations (0 means 64).
	MemoGraphMax int

	// SnapshotLoad, when non-empty, warm-starts the p-action cache from
	// the snapshot file at that path before simulating. A missing file is
	// a silent cold start; a corrupt, version-skewed or mismatched file
	// falls back to a cold start with Result.Snapshot.Warning set (never
	// an error, never a wrong Result) unless SnapshotStrict is on.
	SnapshotLoad string
	// SnapshotSave, when non-empty, writes the final p-action cache to
	// that path after a successful run (atomic: temp file + fsync +
	// rename). A cancelled or failed run writes nothing.
	SnapshotSave string
	// SnapshotStrict turns rejected SnapshotLoad files into run errors
	// instead of cold-start fallbacks; for callers that must know their
	// warm start happened (benchmarking, CI).
	SnapshotStrict bool

	// Shared, when non-nil, attaches a process-wide shared p-action cache:
	// before simulating, the run acquires the graph published for its
	// fingerprint (if any) and imports it exactly like a snapshot warm
	// start; after a successful run it offers its merged graph back under
	// epoch-based publication, and a run that quarantined any chain poisons
	// the epoch it imported so neighbours never replay it. Because warm
	// starts are bit-identical to cold runs, attaching a SharedCache can
	// change speed and Result.Memo accounting, never the simulation Result.
	// SnapshotLoad takes precedence: a run given an explicit snapshot file
	// neither acquires from nor publishes to the shared cache (the two warm
	// sources would race for the empty cache). See docs/SERVER.md.
	Shared *memo.SharedCache

	// FaultInject, when non-nil, arms deterministic fault injection at
	// every site the run passes through: memo allocation failures (the
	// engine's Cache.Inject), chain bit flips and snapshot IO faults (read
	// and write errors, post-read truncation). It exists for the chaos
	// modes and the fault-tolerance tests; see docs/ROBUSTNESS.md. Every
	// injected fault must end in a self-healed bit-identical Result or a
	// typed error — never a silently wrong statistic.
	FaultInject *faultinject.Injector

	MaxCycles uint64 // safety bound; 0 means a large default
}

// DefaultConfig returns the paper's processor model with memoization on
// and an unbounded p-action cache.
func DefaultConfig() Config {
	return Config{
		Uarch:   uarch.DefaultParams(),
		Cache:   cachesim.DefaultConfig(),
		BPred:   BPredConfig{Entries: bpred.DefaultEntries},
		Memoize: true,
		Memo:    memo.DefaultOptions(),
	}
}

// defaultMaxCycles bounds runaway simulations (target program bugs).
const defaultMaxCycles = 40_000_000_000

// BPredKind selects the branch predictor implementation.
type BPredKind uint8

const (
	// BPred2Bit is the paper's 2-bit saturating-counter BHT.
	BPred2Bit BPredKind = iota
	// BPredGshare is the global-history extension (see bpred.Gshare); a
	// better predictor reduces rollback work and outcome-edge fan-out in
	// the p-action cache without affecting memoization exactness.
	BPredGshare
)

// BPredConfig selects and sizes the branch predictor.
type BPredConfig struct {
	Kind        BPredKind
	Entries     int // table entries; <= 0 selects 512
	HistoryBits int // gshare history length; <= 0 selects 8
}

func (b BPredConfig) build() bpred.Predictor {
	if b.Kind == BPredGshare {
		return bpred.NewGshare(b.Entries, b.HistoryBits)
	}
	return bpred.New(b.Entries)
}
