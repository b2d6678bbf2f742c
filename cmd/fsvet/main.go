// Command fsvet runs FastSim's determinism static-analysis suite over the
// simulation-core packages. Bit-identical replay is the repo's central
// invariant (see docs/DETERMINISM.md); fsvet turns it into a build-time
// check. The intraprocedural analyzers catch call-site hazards — map
// iteration that can leak order, wall-clock and global-rand reads, observer
// hooks that break the zero-allocation contract, exact floating-point
// comparison — and the interprocedural analyzers propagate function
// summaries across every loaded package: transitive wall-clock/rand taint
// with the offending call chain, purity of //fastsim:memo-policy decision
// points, and fastsim:guarded-by(mu) lock discipline on shared state.
//
// Usage:
//
//	go run ./cmd/fsvet ./...
//	go run ./cmd/fsvet ./internal/memo ./internal/obs
//	go run ./cmd/fsvet -sarif findings.sarif ./...
//	go run ./cmd/fsvet -list
//
// fsvet prints findings as "file:line:col: analyzer: message" and exits 1
// when there are any (2 on load errors), so it runs as a CI gate. A package
// pattern matching nothing in the vetted set is an error — a typo'd path
// must not green-light the build.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fastsim/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: fsvet [-list] [-sarif file] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the determinism analyzers over FastSim's simulation-core packages.\nWith no package arguments, vets all of them (equivalent to ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, az := range analysis.All {
			fmt.Printf("%-10s %s\n", az.Name, az.Doc)
		}
		return
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.SelectPackages(patterns, modPath)
	if err != nil {
		fatal(err)
	}

	// Load the whole vetted universe once — interprocedural summaries must
	// propagate across every package boundary even when only a subset is
	// being reported on — then report per selected package.
	universe, vetted, err := analysis.LoadUniverse(root, modPath)
	if err != nil {
		fatal(err)
	}
	prog := analysis.BuildProgram(universe)

	var diags []analysis.Diagnostic
	for _, rel := range pkgs {
		for _, d := range analysis.CheckProgram(prog, vetted[rel], analysis.AnalyzersFor(rel)) {
			// Print paths relative to the invocation directory when
			// possible, so findings are clickable where fsvet ran.
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			diags = append(diags, d)
		}
	}

	if *sarifPath != "" {
		w := os.Stdout
		if *sarifPath != "-" {
			f, err := os.Create(*sarifPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := analysis.WriteSARIF(w, diags, analysis.All); err != nil {
			fatal(err)
		}
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fsvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fsvet: %v\n", err)
	os.Exit(2)
}
