package fastsim_test

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"fastsim"
)

// The exactness property: FastSim and SlowSim agree cycle for cycle.
func ExampleRun() {
	prog, err := fastsim.Assemble("sum.s", `
main:
	li   t0, 100
	li   t1, 0
loop:
	add  t1, t1, t0
	addi t0, t0, -1
	bnez t0, loop
	mv   a0, t1
	sys  2
	li   a0, 0
	halt
`)
	if err != nil {
		log.Fatal(err)
	}

	fast, err := fastsim.Run(prog)
	if err != nil {
		log.Fatal(err)
	}

	slow, err := fastsim.Run(prog, fastsim.WithMemoize(false))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("identical cycles:", fast.Cycles == slow.Cycles)
	fmt.Println("checksum:", fast.Checksum == slow.Checksum)
	// Output:
	// identical cycles: true
	// checksum: true
}

// Functional emulation is the semantic oracle.
func ExampleEmulate() {
	prog, err := fastsim.Assemble("answer.s", `
main:
	li  a0, 42
	sys 2
	li  a0, 0
	halt
`)
	if err != nil {
		log.Fatal(err)
	}
	insts, _, exit, err := fastsim.Emulate(prog, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(insts, "instructions, exit", exit)
	// Output:
	// 6 instructions, exit 0
}

// Bounding the p-action cache with the paper's flush-on-full policy trades
// speed for memory, never accuracy.
func ExampleMemoOptions() {
	w, _ := fastsim.GetWorkload("129.compress")
	prog, err := w.Build(0.05)
	if err != nil {
		log.Fatal(err)
	}

	unbounded, err := fastsim.Run(prog)
	if err != nil {
		log.Fatal(err)
	}

	bounded, err := fastsim.Run(prog, fastsim.WithPolicy(fastsim.PolicyFlush, 32<<10))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("same cycle count:", unbounded.Cycles == bounded.Cycles)
	fmt.Println("flushed:", bounded.Memo.Flushes > 0)
	// Output:
	// same cycle count: true
	// flushed: true
}

// WithSpanTraceTo streams a Chrome trace-event span trace of the run; the
// tracer is owned and closed by the run, so one composable option is all it
// takes.
func ExampleWithSpanTraceTo() {
	prog, err := fastsim.Assemble("spin.s", `
main:
	li   t0, 50
loop:
	addi t0, t0, -1
	bnez t0, loop
	li   a0, 0
	halt
`)
	if err != nil {
		log.Fatal(err)
	}

	var trace bytes.Buffer
	if _, err := fastsim.Run(prog, fastsim.WithSpanTraceTo(&trace, fastsim.TimebaseCycles)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("trace is a JSON array:", strings.HasPrefix(trace.String(), "["))
	fmt.Println("has spans:", strings.Contains(trace.String(), `"ph"`))
	// Output:
	// trace is a JSON array: true
	// has spans: true
}

// A shared p-action cache lets runs of the same (program, configuration)
// warm each other: the first run records and publishes, later runs replay
// the published chains. Sharing changes wall time, never statistics.
func ExampleWithSharedCache() {
	w, _ := fastsim.GetWorkload("129.compress")
	prog, err := w.Build(0.05)
	if err != nil {
		log.Fatal(err)
	}

	shared := fastsim.NewSharedCache(4)
	first, err := fastsim.Run(prog, fastsim.WithSharedCache(shared))
	if err != nil {
		log.Fatal(err)
	}
	second, err := fastsim.Run(prog, fastsim.WithSharedCache(shared))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("first published:", first.Shared.Published)
	fmt.Println("second warmed:", second.Shared.Warmed)
	fmt.Println("identical cycles:", first.Cycles == second.Cycles)
	// Output:
	// first published: true
	// second warmed: true
	// identical cycles: true
}

// OpenSnapshot examines a snapshot file offline — integrity-checked, no
// live cache, no fingerprint requirement.
func ExampleOpenSnapshot() {
	w, _ := fastsim.GetWorkload("129.compress")
	prog, err := w.Build(0.05)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "fsnap-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cache.fsnap")
	if _, err := fastsim.Run(prog, fastsim.WithSnapshotSave(path)); err != nil {
		log.Fatal(err)
	}

	snap, err := fastsim.OpenSnapshot(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("has configurations:", snap.Configs() > 0)
	fmt.Println("has actions:", snap.Actions() > 0)
	// Output:
	// has configurations: true
	// has actions: true
}
