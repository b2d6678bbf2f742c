// Command fastsim runs one program or workload under a chosen simulation
// engine and prints its statistics.
//
// Usage:
//
//	fastsim [flags] <program.s>        # simulate an SV8 assembly file
//	fastsim [flags] -workload 099.go   # simulate a built-in workload
//	fastsim -list                      # list the built-in workloads
//
// Engines: -engine fastsim (default), slowsim, refsim, emulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"fastsim"
	"fastsim/internal/debugsrv"
	"fastsim/internal/memo"
	"fastsim/internal/micro"
	"fastsim/internal/profile"
	"fastsim/internal/tablegen"
	"fastsim/internal/workloads"
)

func main() {
	var (
		engine   = flag.String("engine", "fastsim", "engine: fastsim | slowsim | refsim | emulate")
		workload = flag.String("workload", "", "run a built-in workload instead of a file")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		input    = flag.String("input", "", "named workload size: test | train | ref (overrides -scale)")
		policy   = flag.String("policy", "unbounded", "p-action cache policy: unbounded | flush | gc | gengc")
		limit    = flag.Int("limit", 0, "p-action cache limit in bytes (0 = unlimited)")
		memoLoad = flag.String("memo-load", "", "warm-start the p-action cache from this snapshot file (missing/rejected files start cold)")
		memoSave = flag.String("memo-save", "", "save the p-action cache to this snapshot file after the run (atomic)")
		budget   = flag.Int("memo-budget", 0, "hard p-action cache memory budget in bytes, enforced for every policy (0 = off)")
		verify   = flag.Float64("verify", 0, "shadow-verification rate in [0,1]: fraction of cache hits re-executed in detail and cross-checked")
		chaos    = flag.Uint64("chaos", 0, "arm the chaos fault-injection preset with this seed (0 = off); implies -verify 1 unless set explicitly")
		trace    = flag.String("trace", "", "write a pipetrace to this file (per-cycle under slowsim; episode-granular under fastsim)")
		spanOut  = flag.String("span-trace", "", "write a Chrome trace-event span trace (Perfetto-loadable JSON) to this file")
		spanTB   = flag.String("span-timebase", "cycles", "span-trace timebase: cycles (deterministic) | wall (profiling)")
		debug    = flag.String("debug-addr", "", "serve the live debug HTTP endpoints (pprof, expvar, /metrics, /status) on this address")
		hist     = flag.Bool("hist", false, "print load-latency and replay-chain histograms")
		sample   = flag.String("sample", "", "write a JSONL time-series sample row every -interval cycles to this file")
		interval = flag.Uint64("interval", fastsim.DefaultSampleInterval, "sampling interval in simulated cycles for -sample")
		events   = flag.String("events", "", "write the structured JSONL event stream to this file")
		progress = flag.Bool("progress", false, "print a wall-clock progress heartbeat to stderr")
		dot      = flag.String("dot", "", "write the p-action graph (Graphviz DOT) to this file")
		asJSON   = flag.Bool("json", false, "print the result as JSON")
		list     = flag.Bool("list", false, "list built-in workloads and exit")
		params   = flag.Bool("params", false, "print the processor model parameters and exit")
		calib    = flag.Bool("calibrate", false, "measure the machine with probe programs and exit")
		profFlag = flag.Bool("profile", false, "print a flat execution profile of the target program")
	)
	flag.Parse()

	if *params {
		fmt.Print(tablegen.Table1())
		return
	}
	if *calib {
		cal, err := micro.Calibrate(fastsim.DefaultConfig(), nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(cal.Render())
		return
	}
	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-14s [%s] %s\n", w.Name, w.Category, w.Description)
		}
		return
	}

	if *input != "" {
		sc, ok := workloads.Input[*input]
		if !ok {
			fatal(fmt.Errorf("unknown input %q (want test, train or ref)", *input))
		}
		*scale = sc
	}
	prog, err := loadProgram(*workload, *scale, flag.Args())
	if err != nil {
		fatal(err)
	}

	if *profFlag {
		pr, err := profile.Run(prog, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Print(pr.Render(0))
		return
	}

	switch *engine {
	case "emulate":
		insts, checksum, exit, err := fastsim.Emulate(prog, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("instructions: %d\nchecksum:     %#08x\nexit code:    %d\n",
			insts, checksum, exit)

	case "refsim":
		res, err := fastsim.RunReference(prog, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cycles:       %d\ninstructions: %d\nIPC:          %.3f\n",
			res.Cycles, res.Insts, float64(res.Insts)/float64(res.Cycles))
		fmt.Printf("mispredicts:  %d\nchecksum:     %#08x\n", res.Mispredicts, res.Checksum)
		fmt.Printf("speed:        %.1f Kinsts/s (%v)\n", res.KInstsPerSec(), res.WallTime)

	case "fastsim", "slowsim":
		cfg := fastsim.DefaultConfig()
		cfg.Memoize = *engine == "fastsim"
		pol, err := memo.ParsePolicy(*policy)
		if err != nil {
			fatal(err)
		}
		cfg.Memo = fastsim.MemoOptions{Policy: pol, Limit: *limit, Budget: *budget, VerifyRate: *verify}
		cfg.SnapshotLoad = *memoLoad
		cfg.SnapshotSave = *memoSave
		var inj *fastsim.FaultInjector
		if *chaos != 0 {
			inj = fastsim.NewChaosInjector(*chaos)
			cfg.FaultInject = inj
			// Chaos default: verify every hit, so injected chain corruption
			// can never slip into the statistics unverified. An explicit
			// -verify (even 0) overrides.
			verifySet := false
			flag.Visit(func(f *flag.Flag) { verifySet = verifySet || f.Name == "verify" })
			if !verifySet {
				cfg.Memo.VerifyRate = 1
			}
		}
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			cfg.Trace = f
		}
		if *dot != "" {
			f, err := os.Create(*dot)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			cfg.MemoGraphDot = f
		}
		if *spanOut != "" {
			tb := fastsim.TimebaseCycles
			switch *spanTB {
			case "cycles":
			case "wall":
				tb = fastsim.TimebaseWall
			default:
				fatal(fmt.Errorf("unknown span timebase %q (want cycles or wall)", *spanTB))
			}
			f, err := os.Create(*spanOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			tr := fastsim.NewTracer(f, fastsim.TracerOptions{Timebase: tb, Name: "fastsim " + prog.Name})
			defer tr.Close()
			cfg.Tracer = tr
		}
		if *sample != "" || *events != "" || *progress || *debug != "" {
			var opt fastsim.ObserverOptions
			if *sample != "" {
				f, err := os.Create(*sample)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				opt.SampleW = f
				opt.SampleInterval = *interval
			}
			if *events != "" {
				f, err := os.Create(*events)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				opt.EventW = f
			}
			if *progress {
				opt.ProgressW = os.Stderr
			}
			if *debug != "" {
				opt.Publish = &fastsim.Published{}
				srv, err := debugsrv.Start(*debug, debugsrv.Options{
					Published: opt.Publish,
					Info: map[string]string{
						"program": prog.Name,
						"engine":  *engine,
						"policy":  *policy,
					},
				})
				if err != nil {
					fatal(err)
				}
				defer srv.Close()
				fmt.Fprintf(os.Stderr, "fastsim: debug server on http://%s/\n", srv.Addr())
			}
			cfg.Observer = fastsim.NewObserver(opt)
		}
		res, err := fastsim.Run(prog, fastsim.WithConfig(cfg))
		if inj != nil {
			fmt.Fprintln(os.Stderr, "fastsim:", inj.Summary())
		}
		if err != nil {
			fatal(err)
		}
		if res.Snapshot.Warning != "" {
			fmt.Fprintln(os.Stderr, "fastsim: warning:", res.Snapshot.Warning)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fatal(err)
			}
			return
		}
		printResult(res)
		if *hist {
			fmt.Println()
			fmt.Print(res.Cache.LoadLatency.Render("load latency (cycles)"))
			if res.Memoized {
				fmt.Println()
				fmt.Print(res.Memo.ChainHist.Render("replay chain length (actions)"))
			}
		}

	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
}

func loadProgram(workload string, scale float64, args []string) (*fastsim.Program, error) {
	if workload != "" {
		w, ok := fastsim.GetWorkload(workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (try -list)", workload)
		}
		return w.Build(scale)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("need exactly one program file or -workload (got %d args)", len(args))
	}
	if strings.HasSuffix(args[0], ".fsx") {
		f, err := os.Open(args[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return fastsim.ReadProgram(f, args[0])
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(args[0], ".mc") {
		return fastsim.CompileMinC(args[0], string(src))
	}
	return fastsim.Assemble(args[0], string(src))
}

func printResult(r *fastsim.Result) {
	fmt.Printf("cycles:        %d\n", r.Cycles)
	fmt.Printf("instructions:  %d (IPC %.3f)\n", r.Insts, r.IPC())
	fmt.Printf("loads/stores:  %d / %d\n", r.RetiredLoads, r.RetiredStores)
	fmt.Printf("branch pred:   %d predictions, %d mispredicts (%.2f%%)\n",
		r.BPredPredicts, r.BPredMispredicts,
		fastsim.Percent(r.BPredMispredicts, r.BPredPredicts))
	fmt.Printf("rollbacks:     %d (wrong-path insts: %d)\n",
		r.Direct.Rollbacks, r.Direct.WrongPathInsts)
	fmt.Printf("L1: %d hits / %d misses; L2: %d hits / %d misses\n",
		r.Cache.L1Hits, r.Cache.L1Misses, r.Cache.L2Hits, r.Cache.L2Misses)
	fmt.Printf("checksum:      %#08x (exit %d)\n", r.Checksum, r.ExitCode)
	fmt.Printf("speed:         %.1f Kinsts/s (%v)\n", r.KInstsPerSec(), r.WallTime)
	if r.Snapshot.Loaded {
		fmt.Printf("snapshot:      warm start — %d configs, %d actions, %d KB loaded\n",
			r.Snapshot.LoadedConfigs, r.Snapshot.LoadedActions, r.Snapshot.LoadedBytes>>10)
	}
	if r.Snapshot.Saved {
		fmt.Printf("snapshot:      saved %d KB\n", r.Snapshot.SavedBytes>>10)
	}
	if r.Memoized {
		m := r.Memo
		fmt.Printf("memoization:   %d configs, %d actions, %d KB (peak)\n",
			m.Configs, m.Actions, m.PeakBytes>>10)
		fmt.Printf("               detailed %.4f%% of instructions; avg chain %.0f, max %d\n",
			m.DetailedFraction()*100, m.AvgChain(), m.ChainMax)
		if m.Flushes+m.Collections > 0 {
			fmt.Printf("               %d flushes, %d collections\n", m.Flushes, m.Collections)
		}
		if m.EpisodesVerified+m.Quarantines > 0 {
			fmt.Printf("               verified %d episodes: %d divergences, %d quarantines (%d actions evicted)\n",
				m.EpisodesVerified, m.VerifyDivergences, m.Quarantines, m.QuarantinedActions)
		}
		if m.GuardPressure+m.GuardDegraded > 0 {
			fmt.Printf("               guard: %d pressure transitions, %d degradations, %d detailed-only episodes\n",
				m.GuardPressure, m.GuardDegraded, m.DegradedEpisodes)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastsim:", err)
	os.Exit(1)
}
