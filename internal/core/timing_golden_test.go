package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastsim/internal/asm"
	"fastsim/internal/obs"
	"fastsim/internal/program"
	"fastsim/internal/workloads"
)

// timingMachines are the design points the machine-timing golden covers:
// tablegen.DefaultMachines (copied here, since tablegen imports core) plus
// a register-starved machine whose decode stalls on physical registers.
var timingMachines = []struct {
	name string
	mut  func(*Config)
}{
	{"baseline-r10k", func(c *Config) {}},
	{"2-wide", func(c *Config) {
		c.Uarch.FetchWidth, c.Uarch.DecodeWidth, c.Uarch.RetireWidth = 2, 2, 2
		c.Uarch.IntALUs, c.Uarch.FPUs = 1, 1
		c.Uarch.ActiveList = 16
	}},
	{"8-wide", func(c *Config) {
		c.Uarch.FetchWidth, c.Uarch.DecodeWidth, c.Uarch.RetireWidth = 8, 8, 8
		c.Uarch.IntALUs, c.Uarch.FPUs, c.Uarch.AddrAdders = 4, 4, 2
		c.Uarch.ActiveList = 64
		c.Uarch.MaxSpecBranches = 8
	}},
	{"small-window", func(c *Config) { c.Uarch.ActiveList = 8 }},
	{"no-speculation", func(c *Config) { c.Uarch.MaxSpecBranches = 1 }},
	{"tiny-caches", func(c *Config) {
		c.Cache.L1Size = 4 << 10
		c.Cache.L2Size = 64 << 10
	}},
	{"slow-memory", func(c *Config) { c.Cache.MemLat = 200 }},
	{"register-starved", func(c *Config) { c.Uarch.PhysInt, c.Uarch.PhysFP = 40, 40 }},
}

// timingWorkloads are small integer (130.li; 132.ijpeg, which divides)
// and floating-point (101.tomcatv, which divides) runs.
var timingWorkloads = []struct {
	name  string
	scale float64
}{
	{"130.li", 0.01},
	{"132.ijpeg", 0.01},
	{"101.tomcatv", 0.01},
}

// timingUnitsSrc keeps every non-pipelined unit (integer divide, FP divide,
// FP square root) busy alongside loads, stores and a loop branch; no
// generated workload issues a square root.
const timingUnitsSrc = `
main:
	addi s0, zero, 300
	addi t0, zero, 7
	cvtif f1, t0
loop:
	cvtif f2, s0
	div   t1, s0, t0
	rem   t2, s0, t0
	fdiv  f3, f2, f1
	fsqrt f4, f2
	fadd  f5, f3, f4
	fsqrt f6, f5
	fdiv  f7, f6, f1
	sw    t1, -8(sp)
	fsd   f7, -16(sp)
	fld   f8, -16(sp)
	lw    t3, -8(sp)
	add   t4, t3, t2
	addi  s0, s0, -1
	bne   s0, zero, loop
	halt
`

// TestMachineTimingGolden pins SlowSim's per-cycle behaviour on every
// timing machine: the cycle count and the SHA-256 of the full pipetrace of
// each run, one line per (machine, workload) in
// testdata/golden/timing.sum. FastSim ≡ SlowSim cannot catch a change to
// the detailed pipeline, since both run it; this golden can. Regenerate
// deliberately with `go test ./internal/core -run MachineTimingGolden -update`.
func TestMachineTimingGolden(t *testing.T) {
	units, err := asm.Assemble("units.s", timingUnitsSrc)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*program.Program{units}
	for _, w := range timingWorkloads {
		wl, ok := workloads.Get(w.name)
		if !ok {
			t.Fatalf("unknown workload %s", w.name)
		}
		p, err := wl.Build(w.scale)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	var sums strings.Builder
	for _, p := range progs {
		for _, m := range timingMachines {
			cfg := DefaultConfig()
			cfg.Memoize = false
			m.mut(&cfg)
			h := sha256.New()
			cfg.Observer = obs.New(obs.Options{PipetraceW: h})
			res, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", p.Name, m.name, err)
			}
			fmt.Fprintf(&sums, "%s %s cycles=%d insts=%d sha256=%x\n",
				m.name, p.Name, res.Cycles, res.Insts, h.Sum(nil))
		}
	}
	path := filepath.Join("testdata", "golden", "timing.sum")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sums.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if sums.String() != string(want) {
		t.Errorf("%s: timing differs from the golden\ngot:\n%swant:\n%s", path, sums.String(), want)
	}
}
