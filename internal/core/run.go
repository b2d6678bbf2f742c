package core

import (
	"context"
	"fmt"
	"time"

	"fastsim/internal/cachesim"
	"fastsim/internal/direct"
	"fastsim/internal/memo"
	"fastsim/internal/program"
	"fastsim/internal/uarch"
)

// Result is the outcome of one simulation: timing statistics plus the
// architectural results of the program (which FastSim computes by direct
// execution, and which must be identical across all engines).
type Result struct {
	Cycles        uint64 // simulated cycles
	Insts         uint64 // retired (committed) instructions
	RetiredLoads  uint64
	RetiredStores uint64

	// Architectural results.
	Checksum uint32
	ExitCode uint32
	Output   []byte

	// Component statistics.
	Direct           direct.Stats
	Cache            cachesim.Stats
	BPredPredicts    uint64
	BPredMispredicts uint64

	Memoized bool
	Memo     memo.Stats

	// Snapshot reports warm-start and save activity; like WallTime it is
	// about how the run went, not what it computed — a warm-started run's
	// simulation results are bit-identical to a cold run's.
	Snapshot SnapshotStatus

	// Shared reports shared p-action cache activity (Config.Shared); the
	// same how-not-what caveat as Snapshot applies.
	Shared SharedStatus

	WallTime time.Duration // host time spent simulating
}

// IPC returns retired instructions per simulated cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// KInstsPerSec returns simulation speed in thousands of retired
// instructions per host second (Table 3's metric).
func (r *Result) KInstsPerSec() float64 {
	s := r.WallTime.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Insts) / s / 1000
}

// Run simulates prog under cfg: FastSim when cfg.Memoize is set, SlowSim
// otherwise. The two produce bit-identical statistics.
func Run(prog *program.Program, cfg Config) (*Result, error) {
	return RunContext(context.Background(), prog, cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled the
// simulation stops at the next episode boundary (memoized) or cycle batch
// (detailed) and returns ctx's error. A cancelled run never writes a
// snapshot file — cfg.SnapshotSave happens only after a complete,
// successful simulation, so a half-built cache can never shadow a good
// snapshot on disk.
func RunContext(ctx context.Context, prog *program.Program, cfg Config) (res *Result, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = defaultMaxCycles
	}
	drv := newDriver(prog, cfg.Cache, cfg.BPred)
	o := cfg.Observer
	if o != nil {
		drv.obs = o
		drv.registerMetrics(o.Metrics())
		o.Begin(prog.Name, func() uint64 { return drv.retiredInsts })
		// Registered before the recover defer, so it runs after err is
		// settled: a sink write failure only surfaces when the run itself
		// succeeded (Close is idempotent and reports the same error again
		// after Finish).
		defer func() {
			if cerr := o.Close(); cerr != nil && err == nil {
				res, err = nil, fmt.Errorf("core: observer: %w", cerr)
			}
		}()
	}

	defer recoverRun(&err)

	// WallTime starts before the snapshot load, so warm-start overhead is
	// part of the reported time — a warm-vs-cold comparison stays honest.
	start := time.Now() //fastsim:allow-wallclock: WallTime reports host simulation speed only; determinism tests zero it before comparing Results
	var cycles uint64
	var memoStats memo.Stats
	var snapStatus SnapshotStatus
	var sharedStatus SharedStatus
	// The run's one detailed pipeline: SlowSim steps it, FastSim's engine
	// records through it and restores it at every replay stop.
	pl, err := uarch.New(cfg.Uarch, prog, drv, prog.Entry)
	if err != nil {
		return nil, err
	}
	pl.Obs = o
	if o != nil {
		pl.RegisterMetrics(o.Metrics())
	}
	if cfg.Memoize {
		eng := memo.NewEngine(pl, drv, cfg.Memo)
		eng.Cache.Inject = cfg.FaultInject
		eng.Obs = o
		if ctx.Done() != nil {
			eng.Cancel = func() error { return ctx.Err() }
		}
		if cfg.SnapshotLoad != "" {
			if err := loadSnapshot(eng, prog, &cfg, &snapStatus); err != nil {
				return nil, err
			}
		}
		var sharedFP uint64
		sharedActive := cfg.Shared != nil && cfg.SnapshotLoad == ""
		if sharedActive {
			sharedFP = acquireShared(eng, prog, &cfg, &sharedStatus)
		}
		cycles, err = eng.Run(maxCycles)
		memoStats = eng.Cache.Stats()
		if sharedActive {
			settleShared(eng, sharedFP, &cfg, cycles, err, &sharedStatus)
		}
		if err != nil {
			return nil, err
		}
		if cfg.MemoGraphDot != nil {
			if derr := eng.Cache.ExportDot(cfg.MemoGraphDot, cfg.MemoGraphMax); derr != nil {
				return nil, fmt.Errorf("core: dot export: %w", derr)
			}
		}
		if cfg.SnapshotSave != "" {
			if err := saveSnapshot(eng, prog, &cfg, cycles, &snapStatus); err != nil {
				return nil, err
			}
			memoStats = eng.Cache.Stats()
		}
	} else {
		poll := ctx.Done() != nil
		for !pl.Done() {
			if pl.Now > maxCycles {
				return nil, fmt.Errorf("core: exceeded %d cycles without halting", maxCycles)
			}
			if poll && pl.Now&slowSimCancelMask == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
			}
			pl.Step()
			o.Tick(pl.Now)
		}
		cycles = pl.Now
	}
	// Finish closes the Observer; a sink write error it hits is reported
	// by the deferred Close once the run's own outcome is settled.
	o.Finish(cycles) //nolint:errcheck

	wall := time.Since(start) //fastsim:allow-wallclock: see above

	if !drv.halted {
		return nil, fmt.Errorf("core: simulation stopped before the program halted")
	}
	st := drv.eng.St
	preds, miss := drv.pred.Stats()
	return &Result{
		Cycles:        cycles,
		Insts:         drv.retiredInsts,
		RetiredLoads:  drv.retiredLoads,
		RetiredStores: drv.retiredStores,

		Checksum: st.Checksum,
		ExitCode: st.ExitCode,
		Output:   st.Output,

		Direct:           drv.eng.Stats(),
		Cache:            drv.cache.Stats(),
		BPredPredicts:    preds,
		BPredMispredicts: miss,

		Memoized: cfg.Memoize,
		Memo:     memoStats,

		Snapshot: snapStatus,
		Shared:   sharedStatus,

		WallTime: wall,
	}, nil
}

// recoverRun, deferred, turns a deliberate panic from the simulation's call
// tree into the error *err, and re-raises any other panic.
func recoverRun(err *error) {
	switch v := recover().(type) {
	case nil:
	case runError:
		*err = v.err
	case cachesim.RequestError:
		*err = fmt.Errorf("core: %w", v)
	case uarch.Desync:
		*err = fmt.Errorf("core: %w", v)
	default:
		panic(v)
	}
}

// slowSimCancelMask amortizes SlowSim's cancellation polls to once per
// 4096 simulated cycles, keeping ctx support off the per-cycle hot path.
const slowSimCancelMask = 4095
