// Package fastsim is a Go reproduction of FastSim, the memoizing
// out-of-order processor simulator of Schnarr & Larus, "Fast Out-Of-Order
// Processor Simulation Using Memoization" (ASPLOS-VIII, 1998).
//
// FastSim simulates a speculative, out-of-order uniprocessor (a MIPS
// R10000-like microarchitecture) cycle-accurately, and accelerates the
// simulation with two techniques:
//
//   - Speculative direct-execution: the target program runs functionally,
//     decoupled from and ahead of the timing model; mispredicted paths are
//     executed directly and rolled back when the µ-architecture resolves
//     the branch (paper §3).
//   - Fast-forwarding: µ-architecture configurations and the simulator
//     actions they produce are memoized in a p-action cache; revisiting a
//     configuration replays the actions instead of re-running the detailed
//     simulator, with bit-identical statistics (paper §4).
//
// # Quick start
//
//	prog, err := fastsim.Assemble("prog.s", source)
//	res, err := fastsim.Run(prog)
//	fmt.Println(res.Cycles, res.IPC(), res.Memo.AvgChain())
//
// Run takes functional options; the zero-option call is the paper's
// processor model with memoization on. Compare FastSim against its
// non-memoized self (SlowSim) — the results are identical, only the wall
// time differs:
//
//	slow, err := fastsim.Run(prog, fastsim.WithMemoize(false))
//
// Persist the p-action cache across runs for warm starts:
//
//	res, err := fastsim.Run(prog, fastsim.WithSnapshot("prog.fsnap"))
//
// Run and RunContext are the entry points; every knob is a functional
// Option (see docs/API.md for ordering rules and the full catalog).
// Callers holding a fully built Config pass it through fastsim.WithConfig.
//
// Observe a run — metrics, a JSONL event stream, a Perfetto span trace, a
// pipetrace — by attaching one Observer. Every occurrence is reported once to each
// sink; the layer is read-only, so the Result is unchanged, and the run
// owns the Observer, returning a sink's write failure as its error:
//
//	o := fastsim.NewObserver(fastsim.ObserverOptions{EventW: events, SpanW: spans})
//	res, err := fastsim.Run(prog, fastsim.WithObserver(o))
//
// Inspect a snapshot file without touching a live cache:
//
//	snap, err := fastsim.OpenSnapshot("prog.fsnap")
//	fmt.Println(snap.Configs(), snap.Actions())
//
// The packages under internal/ implement the full system: the SV8 ISA and
// assembler, the functional emulator, speculative direct-execution, the
// non-blocking cache hierarchy, the iQ-centric detailed pipeline, the
// p-action cache with all of §4.3's replacement policies, the
// SimpleScalar-surrogate baseline, the 18 SPEC95-like workloads, and the
// harness that regenerates every table and figure of the paper.
package fastsim

import (
	"context"
	"io"

	"fastsim/internal/asm"
	"fastsim/internal/cachesim"
	"fastsim/internal/core"
	"fastsim/internal/emulator"
	"fastsim/internal/faultinject"
	"fastsim/internal/memo"
	"fastsim/internal/minc"
	"fastsim/internal/obs"
	"fastsim/internal/progfile"
	"fastsim/internal/program"
	"fastsim/internal/refsim"
	"fastsim/internal/stats"
	"fastsim/internal/uarch"
	"fastsim/internal/workloads"
)

// Program is a loaded SV8 executable image.
type Program = program.Program

// Config selects the processor model and simulation options.
type Config = core.Config

// Result reports one simulation: cycle-accurate statistics plus the
// program's architectural results.
type Result = core.Result

// PipelineParams are the out-of-order pipeline parameters (paper Table 1).
type PipelineParams = uarch.Params

// CacheConfig is the memory-hierarchy configuration (paper Table 1).
type CacheConfig = cachesim.Config

// MemoOptions configures the p-action cache (policy and size limit).
type MemoOptions = memo.Options

// MemoPolicy selects a p-action cache replacement policy (§4.3).
type MemoPolicy = memo.Policy

// MemoStats reports memoization behaviour (Tables 4 and 5).
type MemoStats = memo.Stats

// BPredConfig selects and sizes the branch predictor.
type BPredConfig = core.BPredConfig

// SnapshotStatus reports a run's p-action snapshot activity
// (Result.Snapshot): what was loaded, what was saved, and the warning text
// when a present snapshot was rejected and the run started cold.
type SnapshotStatus = core.SnapshotStatus

// SharedCache is a process-wide, sharded exchange point for recorded
// p-action graphs, keyed by run fingerprint: concurrent runs of the same
// (program, machine) warm each other under epoch-based publication, with
// quarantine events propagating as epoch poisons. Attach one with
// WithSharedCache; all methods are safe for concurrent use. It is the
// backbone of the multi-tenant simulation server (cmd/fssrv) — see
// docs/SERVER.md.
type SharedCache = memo.SharedCache

// SharedCacheStats aggregates a SharedCache's activity across its shards.
type SharedCacheStats = memo.SharedStats

// SharedStatus reports one run's shared-cache activity (Result.Shared):
// what was acquired, whether the run published a new epoch, and whether it
// poisoned its base.
type SharedStatus = core.SharedStatus

// NewSharedCache builds a SharedCache with at least the given number of
// shards (rounded up to a power of two; <= 0 selects a default of 8).
func NewSharedCache(shards int) *SharedCache { return memo.NewShared(shards) }

// FaultInjector is a deterministic, seed-addressed fault injector for chaos
// testing; arm one with WithFaultInjection. See internal/faultinject and
// docs/ROBUSTNESS.md.
type FaultInjector = faultinject.Injector

// EngineFault is the typed error produced when a panic inside the
// memoization engine (a runtime error, an injected allocation failure) is
// isolated at an episode boundary; it carries the offending configuration's
// fingerprint and the simulated cycle. Match it with
// errors.Is(err, ErrEngineFault) or errors.As.
type EngineFault = memo.EngineFault

// ErrEngineFault is the sentinel every EngineFault matches via errors.Is.
var ErrEngineFault = memo.ErrEngineFault

// NewChaosInjector returns the chaos preset: every fault site armed at
// deterministic, seed-addressed rates — occasional transient snapshot IO
// failures, one possible truncation, a handful of chain bit flips, and a
// rare allocation failure. Equal seeds reproduce the exact same fault
// sequence. Pair it with WithShadowVerify(1) so no corrupted chain can slip
// into the statistics unverified.
func NewChaosInjector(seed uint64) *FaultInjector { return faultinject.Chaos(seed) }

// Replacement policies of §4.3.
const (
	PolicyUnbounded = memo.PolicyUnbounded
	PolicyFlush     = memo.PolicyFlush
	PolicyGC        = memo.PolicyGC
	PolicyGenGC     = memo.PolicyGenGC
)

// Workload is one of the 18 SPEC95-like benchmarks.
type Workload = workloads.Workload

// Observer is the simulator-wide observability layer: a metrics registry,
// an interval time-series sampler, a structured JSONL event stream, a span
// trace loadable in Perfetto, a pipetrace, and a wall-clock progress heartbeat. Attach one via Config.Observer; it is
// strictly read-only, so Result is bit-identical with or without it — on
// FastSim and SlowSim alike. A nil Observer costs one pointer check per
// hook. See docs/OBSERVABILITY.md.
type Observer = obs.Observer

// ObserverOptions selects an Observer's outputs (any writer may be nil).
type ObserverOptions = obs.Options

// SampleRow is one row of the sampler's JSONL time series.
type SampleRow = obs.Row

// Event is one line of the structured JSONL event stream.
type Event = obs.Event

// DefaultSampleInterval is the sampler period (simulated cycles) used when
// ObserverOptions.SampleInterval is zero.
const DefaultSampleInterval = obs.DefaultSampleInterval

// NewObserver builds an Observer with the requested outputs enabled.
func NewObserver(o ObserverOptions) *Observer { return obs.New(o) }

// Timebase selects the clock the span trace (ObserverOptions.SpanW) is
// stamped with.
type Timebase = obs.Timebase

// Span-trace timebases: simulated cycles (deterministic) or host
// microseconds (profiling).
const (
	TimebaseCycles = obs.TimebaseCycles
	TimebaseWall   = obs.TimebaseWall
)

// Published is the cross-goroutine hand-off point for metrics snapshots:
// set ObserverOptions.Publish to one and the simulation publishes an
// immutable registry snapshot at a bounded cycle cadence, which readers
// (the -debug-addr server) load via Latest. The zero value is ready to use.
type Published = obs.Published

// MetricsSnapshot is one immutable published registry snapshot.
type MetricsSnapshot = obs.MetricsSnapshot

// Percent returns 100*part/whole, or 0 when whole is zero — the shared
// guard for rendering "x% of y" from statistics that may be empty.
func Percent(part, whole uint64) float64 { return stats.Percent(part, whole) }

// DefaultConfig returns the paper's processor model with memoization
// enabled and an unbounded p-action cache.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultPipelineParams returns the paper's Table 1 pipeline.
func DefaultPipelineParams() PipelineParams { return uarch.DefaultParams() }

// DefaultCacheConfig returns the paper's Table 1 cache hierarchy.
func DefaultCacheConfig() CacheConfig { return cachesim.DefaultConfig() }

// Run simulates prog cycle-accurately under DefaultConfig plus opts:
// FastSim unless WithMemoize(false) selects the SlowSim baseline. The two
// produce bit-identical statistics.
func Run(prog *Program, opts ...Option) (*Result, error) {
	return core.Run(prog, buildConfig(opts))
}

// RunContext is Run with cancellation: when ctx is cancelled the
// simulation stops at the next episode boundary and returns ctx's error,
// without writing any snapshot file.
func RunContext(ctx context.Context, prog *Program, opts ...Option) (*Result, error) {
	return core.RunContext(ctx, prog, buildConfig(opts))
}

// Assemble translates SV8 assembly source into a runnable Program.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// Disassemble renders a program's text segment as an annotated listing.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// Emulate runs prog functionally (no timing) and returns the retired
// instruction count, checksum and exit code. It is the semantic oracle and
// the "native execution" surrogate of the evaluation.
func Emulate(prog *Program, maxInsts uint64) (insts uint64, checksum, exitCode uint32, err error) {
	cpu := emulator.New(prog)
	if err := cpu.Run(maxInsts); err != nil {
		return cpu.InstCount, cpu.Checksum, cpu.ExitCode, err
	}
	return cpu.InstCount, cpu.Checksum, cpu.ExitCode, nil
}

// CompileMinC compiles MinC source (a tiny C-like language; see
// internal/minc) into a runnable Program.
func CompileMinC(name, src string) (*Program, error) {
	return minc.CompileProgram(name, src)
}

// WriteProgram serializes an assembled program to the binary .fsx format.
func WriteProgram(w io.Writer, p *Program) error { return progfile.Write(w, p) }

// ReadProgram deserializes a program written by WriteProgram.
func ReadProgram(r io.Reader, name string) (*Program, error) { return progfile.Read(r, name) }

// RefResult reports a run of the conventional (SimpleScalar-surrogate)
// out-of-order simulator.
type RefResult = refsim.Result

// RunReference simulates prog on the conventional baseline simulator.
func RunReference(prog *Program, maxCycles uint64) (*RefResult, error) {
	return refsim.Run(prog, refsim.DefaultParams(), cachesim.DefaultConfig(), maxCycles)
}

// Workloads returns the 18 SPEC95-like benchmarks in the paper's order.
func Workloads() []*Workload { return workloads.All() }

// GetWorkload looks a workload up by name (e.g. "099.go").
func GetWorkload(name string) (*Workload, bool) { return workloads.Get(name) }
