// Benchmarks regenerating the measurements behind every table and figure of
// the paper's evaluation. Each benchmark reports, beside ns/op, the custom
// metrics the corresponding table tabulates (Kinsts/sec, speedups, p-action
// cache statistics). bench_scale trades fidelity for time; the fsbench
// command runs the same harness at full scale with formatted output.
//
//	go test -bench=Table2 -benchtime=1x   # one pass over every workload
//	go test -bench=. -benchmem            # everything
package fastsim

import (
	"io"
	"sync"
	"testing"

	"fastsim/internal/cachesim"
	"fastsim/internal/core"
	"fastsim/internal/emulator"
	"fastsim/internal/memo"
	"fastsim/internal/obs"
	"fastsim/internal/program"
	"fastsim/internal/refsim"
	"fastsim/internal/workloads"
)

// benchScale keeps full `go test -bench=.` runs to a few minutes. fsbench
// uses scale 1.0.
const benchScale = 0.1

// progCache is shared across benchmarks, which the testing package may run
// from different goroutines (b.RunParallel, -cpu lists); guard it.
var (
	progCacheMu sync.Mutex
	progCache   = map[string]*program.Program{}
)

func benchProgram(b *testing.B, name string) *program.Program {
	b.Helper()
	progCacheMu.Lock()
	defer progCacheMu.Unlock()
	if p, ok := progCache[name]; ok {
		return p
	}
	w, ok := workloads.Get(name)
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	p, err := w.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	progCache[name] = p
	return p
}

func runEngine(b *testing.B, prog *program.Program, memoize bool) *core.Result {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Memoize = memoize
	r, err := core.Run(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable2 measures SlowSim and FastSim on every workload: the
// memoization speedup of Table 2 is the ratio of the two ns/op figures;
// each run also reports it directly.
func BenchmarkTable2(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name+"/SlowSim", func(b *testing.B) {
			prog := benchProgram(b, w.Name)
			var insts uint64
			for i := 0; i < b.N; i++ {
				insts = runEngine(b, prog, false).Insts
			}
			b.ReportMetric(float64(insts), "insts")
		})
		b.Run(w.Name+"/FastSim", func(b *testing.B) {
			prog := benchProgram(b, w.Name)
			var slow, fast *core.Result
			slow = runEngine(b, prog, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fast = runEngine(b, prog, true)
			}
			b.StopTimer()
			if fast.Cycles != slow.Cycles {
				b.Fatal("memoization changed the cycle count")
			}
			b.ReportMetric(slow.WallTime.Seconds()/fast.WallTime.Seconds(), "speedup")
		})
	}
}

// BenchmarkTable3 measures the SimpleScalar surrogate (the conventional
// baseline); compare its Kinsts/sec against BenchmarkTable2's FastSim runs.
func BenchmarkTable3(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name+"/SimpleScalar", func(b *testing.B) {
			prog := benchProgram(b, w.Name)
			var r *refsim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = refsim.Run(prog, refsim.DefaultParams(), cachesim.DefaultConfig(), 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.KInstsPerSec(), "Kinsts/s")
		})
	}
	// The "Program" column: raw functional emulation speed.
	b.Run("native-surrogate/emulator", func(b *testing.B) {
		prog := benchProgram(b, "129.compress")
		for i := 0; i < b.N; i++ {
			cpu := emulator.New(prog)
			if err := cpu.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable4 reports the detailed-vs-replayed instruction split.
func BenchmarkTable4(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			prog := benchProgram(b, w.Name)
			var r *core.Result
			for i := 0; i < b.N; i++ {
				r = runEngine(b, prog, true)
			}
			b.ReportMetric(float64(r.Memo.DetailedInsts), "detailed")
			b.ReportMetric(float64(r.Memo.ReplayInsts), "replayed")
			b.ReportMetric(r.Memo.DetailedFraction()*100, "detailed%")
		})
	}
}

// BenchmarkTable5 reports the p-action cache measurements.
func BenchmarkTable5(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			prog := benchProgram(b, w.Name)
			var r *core.Result
			for i := 0; i < b.N; i++ {
				r = runEngine(b, prog, true)
			}
			b.ReportMetric(float64(r.Memo.PeakBytes)/1024, "cacheKB")
			b.ReportMetric(float64(r.Memo.Configs), "configs")
			b.ReportMetric(float64(r.Memo.Actions), "actions")
			b.ReportMetric(r.Memo.ActionsPerConfig(), "act/cfg")
			b.ReportMetric(r.Memo.CyclesPerConfig(), "cyc/cfg")
			b.ReportMetric(r.Memo.AvgChain(), "avgchain")
		})
	}
}

// BenchmarkFigure7 sweeps the p-action cache limit with the flush-on-full
// policy on the workloads the paper highlights (go tolerates reduction;
// ijpeg degrades sharply).
func BenchmarkFigure7(b *testing.B) {
	limits := []struct {
		name string
		n    int
	}{
		{"16KB", 16 << 10}, {"64KB", 64 << 10},
		{"256KB", 256 << 10}, {"1MB", 1 << 20}, {"unlimited", 0},
	}
	for _, wl := range []string{"099.go", "132.ijpeg", "107.mgrid"} {
		for _, lim := range limits {
			b.Run(wl+"/"+lim.name, func(b *testing.B) {
				prog := benchProgram(b, wl)
				var r *core.Result
				var err error
				for i := 0; i < b.N; i++ {
					cfg := core.DefaultConfig()
					if lim.n > 0 {
						cfg.Memo = memo.Options{Policy: memo.PolicyFlush, Limit: lim.n}
					}
					r, err = core.Run(prog, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Memo.Flushes), "flushes")
			})
		}
	}
}

// BenchmarkAblationPolicies compares the §4.3 replacement policies at one
// tight limit (the paper: GC performs no better than flushing).
func BenchmarkAblationPolicies(b *testing.B) {
	pols := []memo.Policy{memo.PolicyFlush, memo.PolicyGC, memo.PolicyGenGC}
	for _, pol := range pols {
		b.Run(pol.String(), func(b *testing.B) {
			prog := benchProgram(b, "132.ijpeg")
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Memo = memo.Options{Policy: pol, Limit: 64 << 10}
				if _, err := core.Run(prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracerOverhead measures the span trace's cost on the FastSim hot
// path: "off" is the unobserved run (nil *Observer, one pointer check per
// hook — the configuration every other benchmark measures), "cycles"
// attaches an Observer whose only sink is a cycle-timebase span trace
// streamed to io.Discard. The off/on ns/op ratio bounds what -span-trace
// costs. CI runs "off" and BenchmarkTable2/099.go/FastSim three times each
// in one GOGC=off process and requires one allocs/op figure across all six;
// it gates that plain run's allocs/op and B/op against
// testdata/bench_smoke.json.
func BenchmarkTracerOverhead(b *testing.B) {
	const wl = "099.go"
	b.Run("off", func(b *testing.B) {
		prog := benchProgram(b, wl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runEngine(b, prog, true)
		}
	})
	b.Run("cycles", func(b *testing.B) {
		prog := benchProgram(b, wl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig()
			cfg.Observer = obs.New(obs.Options{SpanW: io.Discard})
			if _, err := core.Run(prog, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponents breaks down the cost of the individual engines on a
// common workload: functional emulation, speculative direct-execution under
// the pipeline (SlowSim), and fast-forwarding (FastSim).
func BenchmarkComponents(b *testing.B) {
	const wl = "124.m88ksim"
	b.Run("emulator", func(b *testing.B) {
		prog := benchProgram(b, wl)
		var insts uint64
		for i := 0; i < b.N; i++ {
			cpu := emulator.New(prog)
			if err := cpu.Run(0); err != nil {
				b.Fatal(err)
			}
			insts = cpu.InstCount
		}
		b.ReportMetric(float64(insts)/b.Elapsed().Seconds()*float64(b.N)/1e6, "Minst/s")
	})
	b.Run("slowsim", func(b *testing.B) {
		prog := benchProgram(b, wl)
		var r *core.Result
		for i := 0; i < b.N; i++ {
			r = runEngine(b, prog, false)
		}
		b.ReportMetric(r.KInstsPerSec(), "Kinsts/s")
	})
	b.Run("fastsim", func(b *testing.B) {
		prog := benchProgram(b, wl)
		var r *core.Result
		for i := 0; i < b.N; i++ {
			r = runEngine(b, prog, true)
		}
		b.ReportMetric(r.KInstsPerSec(), "Kinsts/s")
	})
	b.Run("refsim", func(b *testing.B) {
		prog := benchProgram(b, wl)
		var r *refsim.Result
		var err error
		for i := 0; i < b.N; i++ {
			r, err = refsim.Run(prog, refsim.DefaultParams(), cachesim.DefaultConfig(), 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.KInstsPerSec(), "Kinsts/s")
	})
}
