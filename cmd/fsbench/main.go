// Command fsbench regenerates the paper's evaluation: Tables 2-5, Figure 7,
// the ablations discussed in §4-5, and the design-space sweep. Nothing
// else: fault-injection, server-recovery and warm-start checks are Go
// tests (docs/ROBUSTNESS.md maps each scenario to its test), and speed
// is measured by perfbench.
//
// Usage:
//
//	fsbench -table 1                # processor parameters
//	fsbench -table 2 -scale 1       # Table 2 (and 4, 5 share the same run)
//	fsbench -table 3                # adds the SimpleScalar surrogate
//	fsbench -all                    # Tables 2-5 from one suite run
//	fsbench -figure 7               # cache-limit sweep (slow: many runs)
//	fsbench -ablation gc|direct|encoding|bpred|inorder
//	fsbench -sweep                  # design-space sweep
//	fsbench -workloads 099.go,107.mgrid  # restrict any of the above
//	fsbench -all -j 4               # fan runs over 4 workers (-j 1: sequential)
//
// Every mode fans its independent simulations over a deterministic worker
// pool; tables and JSON are byte-identical for any -j value.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fastsim/internal/debugsrv"
	"fastsim/internal/tablegen"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table N (1-5)")
		figure   = flag.Int("figure", 0, "regenerate figure N (7)")
		ablation = flag.String("ablation", "", "run an ablation: gc | direct | encoding | bpred | inorder")
		all      = flag.Bool("all", false, "regenerate tables 2-5 from one run")
		sweep    = flag.Bool("sweep", false, "run the design-space sweep")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		names    = flag.String("workloads", "", "comma-separated workload subset")
		jobs     = flag.Int("j", 0, "worker-pool width: 0 = all CPUs, 1 = sequential")
		quiet    = flag.Bool("q", false, "suppress progress output")
		asJSON   = flag.Bool("json", false, "emit suite results as JSON (with -table/-all)")
		debug    = flag.String("debug-addr", "", "serve pprof/expvar/status on this address (e.g. :6060) while the suite runs")
	)
	flag.Parse()

	if *debug != "" {
		srv, err := debugsrv.Start(*debug, debugsrv.Options{
			Info: map[string]string{
				"command": "fsbench",
				"args":    strings.Join(os.Args[1:], " "),
			},
			Progress: func() map[string]string {
				done, total := tablegen.ProgressCounts()
				return map[string]string{"units": fmt.Sprintf("%d/%d", done, total)}
			},
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fsbench: debug server on http://%s/\n", srv.Addr())
	}

	var subset []string
	if *names != "" {
		subset = strings.Split(*names, ",")
	}
	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	opts := tablegen.Options{Scale: *scale, Workloads: subset, Verbose: progress, Jobs: *jobs}

	switch {
	case *table == 1:
		fmt.Print(tablegen.Table1())

	case *table >= 2 && *table <= 5 || *all:
		opts.RunRef = *table == 3 || *all
		suite, err := tablegen.Run(opts)
		if err != nil {
			fatal(err)
		}
		if *asJSON {
			if err := suite.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		switch {
		case *all:
			fmt.Println(suite.Table2())
			fmt.Println(suite.Table3())
			fmt.Println(suite.Table4())
			fmt.Println(suite.Table5())
		case *table == 2:
			fmt.Println(suite.Table2())
		case *table == 3:
			fmt.Println(suite.Table3())
		case *table == 4:
			fmt.Println(suite.Table4())
		case *table == 5:
			fmt.Println(suite.Table5())
		}
		fmt.Print(suite.Verify())

	case *sweep:
		res, err := tablegen.RunSweep(nil, subset, *scale, true, *jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())

	case *figure == 7:
		res, err := tablegen.Figure7(opts, nil, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())

	case *ablation == "gc":
		rows, err := tablegen.RunGCAblation(subset, *scale, 0, *jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tablegen.RenderGCAblation(rows))

	case *ablation == "direct":
		rows, err := tablegen.RunDirectAblation(subset, *scale, *jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tablegen.RenderDirectAblation(rows))

	case *ablation == "bpred":
		rows, err := tablegen.RunBPredAblation(subset, *scale, *jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tablegen.RenderBPredAblation(rows))

	case *ablation == "inorder":
		rows, err := tablegen.RunInOrderAblation(subset, *scale, *jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tablegen.RenderInOrderAblation(rows))

	case *ablation == "encoding":
		rows, err := tablegen.RunEncodingAblation(subset, *scale, *jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tablegen.RenderEncodingAblation(rows))

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsbench:", err)
	os.Exit(1)
}
