package core

import (
	"errors"
	"strings"
	"testing"

	"fastsim/internal/asm"
	"fastsim/internal/cachesim"
	"fastsim/internal/emulator"
	"fastsim/internal/memo"
	"fastsim/internal/minc"
	"fastsim/internal/obs"
	"fastsim/internal/program"
	"fastsim/internal/testprog"
	"fastsim/internal/uarch"
)

func build(t *testing.T, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func slowCfg() Config {
	c := DefaultConfig()
	c.Memoize = false
	return c
}

func fastCfg() Config {
	return DefaultConfig()
}

func runBoth(t *testing.T, p *program.Program) (slow, fast *Result) {
	t.Helper()
	var err error
	slow, err = Run(p, slowCfg())
	if err != nil {
		t.Fatalf("slowsim: %v", err)
	}
	fast, err = Run(p, fastCfg())
	if err != nil {
		t.Fatalf("fastsim: %v", err)
	}
	return slow, fast
}

// checkIdentical asserts the paper's central claim: memoization changes no
// simulation statistic whatsoever.
func checkIdentical(t *testing.T, slow, fast *Result, label string) {
	t.Helper()
	if slow.Cycles != fast.Cycles {
		t.Errorf("%s: cycles %d (slow) != %d (fast)", label, slow.Cycles, fast.Cycles)
	}
	if slow.Insts != fast.Insts {
		t.Errorf("%s: insts %d != %d", label, slow.Insts, fast.Insts)
	}
	if slow.RetiredLoads != fast.RetiredLoads || slow.RetiredStores != fast.RetiredStores {
		t.Errorf("%s: loads/stores %d/%d != %d/%d", label,
			slow.RetiredLoads, slow.RetiredStores, fast.RetiredLoads, fast.RetiredStores)
	}
	if slow.Checksum != fast.Checksum || slow.ExitCode != fast.ExitCode {
		t.Errorf("%s: functional results differ", label)
	}
	if slow.Cache != fast.Cache {
		t.Errorf("%s: cache stats differ:\nslow %+v\nfast %+v", label, slow.Cache, fast.Cache)
	}
	if slow.BPredPredicts != fast.BPredPredicts || slow.BPredMispredicts != fast.BPredMispredicts {
		t.Errorf("%s: predictor stats differ", label)
	}
	if slow.Direct.Rollbacks != fast.Direct.Rollbacks ||
		slow.Direct.Insts != fast.Direct.Insts ||
		slow.Direct.WrongPathInsts != fast.Direct.WrongPathInsts {
		t.Errorf("%s: direct-execution stats differ:\nslow %+v\nfast %+v",
			label, slow.Direct, fast.Direct)
	}
}

func checkOracle(t *testing.T, p *program.Program, r *Result, label string) {
	t.Helper()
	cpu := emulator.New(p)
	if err := cpu.Run(100_000_000); err != nil {
		t.Fatalf("%s oracle: %v", label, err)
	}
	if r.Checksum != cpu.Checksum {
		t.Errorf("%s: checksum %#x != oracle %#x", label, r.Checksum, cpu.Checksum)
	}
	if r.ExitCode != cpu.ExitCode {
		t.Errorf("%s: exit %d != oracle %d", label, r.ExitCode, cpu.ExitCode)
	}
	if string(r.Output) != string(cpu.Output) {
		t.Errorf("%s: output differs", label)
	}
	if r.Insts != cpu.InstCount {
		t.Errorf("%s: retired %d != oracle %d instructions", label, r.Insts, cpu.InstCount)
	}
}

func TestSlowSimStraightLine(t *testing.T) {
	p := build(t, `
main:
	li   t0, 5
	li   t1, 6
	add  t2, t0, t1
	mv   a0, t2
	sys  2
	halt
`)
	r, err := Run(p, slowCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, p, r, "slow")
	if r.Cycles < 6 || r.Cycles > 100 {
		t.Errorf("cycles = %d, implausible", r.Cycles)
	}
	if r.Insts != 8 {
		t.Errorf("insts = %d, want 8", r.Insts)
	}
}

func TestSlowSimLoop(t *testing.T) {
	p := build(t, `
main:
	li   t0, 1000
	li   t1, 0
loop:
	add  t1, t1, t0
	addi t0, t0, -1
	bnez t0, loop
	mv   a0, t1
	sys  2
	halt
`)
	r, err := Run(p, slowCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, p, r, "slow")
	// ~3000 instructions on a 4-wide machine: IPC must be sane.
	if ipc := r.IPC(); ipc < 0.3 || ipc > 4.0 {
		t.Errorf("IPC = %.2f, implausible", ipc)
	}
	if r.BPredMispredicts == 0 {
		t.Error("a 1000-iteration loop must mispredict at least once")
	}
	if r.BPredMispredicts > 20 {
		t.Errorf("loop mispredicts = %d, too many", r.BPredMispredicts)
	}
}

func TestSlowSimMemoryLatencyVisible(t *testing.T) {
	// A pointer-chasing loop with a working set far larger than L1 must be
	// much slower per instruction than an arithmetic loop.
	arith := build(t, `
main:
	li   t0, 2000
loopA:
	addi t1, t1, 3
	addi t0, t0, -1
	bnez t0, loopA
	halt
`)
	mem := build(t, `
.data
buf:	.space 262144
.text
main:
	li   t0, 2000
	la   s0, buf
	li   s1, 0
loopB:
	slli t2, t0, 7        # stride 128 >> L1 lines
	add  t2, s0, t2
	lw   t3, 0(t2)
	add  s1, s1, t3
	addi t0, t0, -1
	bnez t0, loopB
	halt
`)
	ra, err := Run(arith, slowCfg())
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(mem, slowCfg())
	if err != nil {
		t.Fatal(err)
	}
	cpiA := float64(ra.Cycles) / float64(ra.Insts)
	cpiM := float64(rm.Cycles) / float64(rm.Insts)
	if cpiM < cpiA*1.5 {
		t.Errorf("memory-bound CPI %.2f not clearly above arithmetic CPI %.2f", cpiM, cpiA)
	}
	if rm.Cache.L1Misses == 0 || rm.Cache.L2Misses == 0 {
		t.Errorf("expected cache misses, got %+v", rm.Cache)
	}
}

func TestFastSimIdenticalSimplePrograms(t *testing.T) {
	srcs := map[string]string{
		"loop": `
main:
	li t0, 300
loop:
	addi t0, t0, -1
	bnez t0, loop
	halt
`,
		"memory": `
.data
buf: .space 4096
.text
main:
	li   t0, 200
	la   s0, buf
loop:
	andi t1, t0, 0xFC
	add  t1, s0, t1
	sw   t0, 0(t1)
	lw   t2, 0(t1)
	add  s1, s1, t2
	addi t0, t0, -1
	bnez t0, loop
	mv   a0, s1
	sys  2
	halt
`,
		"calls": `
main:
	li  s0, 50
loop:
	call f
	addi s0, s0, -1
	bnez s0, loop
	mv   a0, s1
	sys  2
	halt
f:
	add s1, s1, s0
	ret
`,
		"fp": `
.data
v: .double 1.5, 2.5
.text
main:
	la   s0, v
	fld  f1, 0(s0)
	fld  f2, 8(s0)
	li   t0, 80
loop:
	fmul f3, f1, f2
	fadd f1, f1, f3
	fdiv f4, f2, f1
	addi t0, t0, -1
	bnez t0, loop
	cvtfi a0, f4
	sys  2
	halt
`,
	}
	for name, src := range srcs {
		p := build(t, src)
		slow, fast := runBoth(t, p)
		checkIdentical(t, slow, fast, name)
		checkOracle(t, p, fast, name)
		if fast.Memo.Hits == 0 {
			t.Errorf("%s: memoization never hit", name)
		}
	}
}

// TestFastSimIdenticalRandomPrograms is the repository's central property
// test: on randomly generated, heavily branching programs, FastSim's
// statistics equal SlowSim's bit for bit, for every replacement policy.
func TestFastSimIdenticalRandomPrograms(t *testing.T) {
	opts := testprog.DefaultOptions()
	opts.Iterations = 40
	opts.Segments = 8
	for seed := int64(1); seed <= 12; seed++ {
		p, err := testprog.Build(seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Run(p, slowCfg())
		if err != nil {
			t.Fatalf("seed %d slow: %v", seed, err)
		}
		checkOracle(t, p, slow, "slow")

		for _, pol := range []memo.Options{
			{Policy: memo.PolicyUnbounded},
			{Policy: memo.PolicyFlush, Limit: 32 << 10},
			{Policy: memo.PolicyGC, Limit: 32 << 10},
			{Policy: memo.PolicyGenGC, Limit: 32 << 10, MajorEvery: 3},
		} {
			cfg := fastCfg()
			cfg.Memo = pol
			fast, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("seed %d policy %v: %v", seed, pol.Policy, err)
			}
			checkIdentical(t, slow, fast, pol.Policy.String())
		}
	}
}

func TestFastSimReplaysDominate(t *testing.T) {
	// On a regular loop, almost all instructions must retire during
	// replay, not detailed simulation (Table 4's shape).
	p := build(t, `
main:
	li t0, 5000
loop:
	addi t1, t1, 7
	xor  t2, t2, t1
	addi t0, t0, -1
	bnez t0, loop
	halt
`)
	r, err := Run(p, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if f := r.Memo.DetailedFraction(); f > 0.05 {
		t.Errorf("detailed fraction = %.4f, want < 0.05", f)
	}
	if r.Memo.ChainMax < 100 {
		t.Errorf("max chain = %d, expected long replay chains", r.Memo.ChainMax)
	}
}

func TestFastSimFlushPolicyBounded(t *testing.T) {
	opts := testprog.DefaultOptions()
	opts.Iterations = 30
	p, err := testprog.Build(99, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Memo = memo.Options{Policy: memo.PolicyFlush, Limit: 16 << 10}
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Memo.Flushes == 0 {
		t.Error("expected at least one flush with a 16KiB limit")
	}
	// Peak can overshoot by at most one episode's worth of allocation.
	if r.Memo.PeakBytes > 32<<10 {
		t.Errorf("peak %d far above limit", r.Memo.PeakBytes)
	}
}

func TestRunErrorsSurface(t *testing.T) {
	// A committed jump to garbage must produce an error, not a hang/panic.
	p := build(t, `
main:
	li t0, 0x20
	jr t0
`)
	if _, err := Run(p, slowCfg()); err == nil {
		t.Error("slow: expected error")
	}
	if _, err := Run(p, fastCfg()); err == nil {
		t.Error("fast: expected error")
	}
}

// strayPoll is a driver whose 50th load poll names an lQ index with no live
// request — the index 256 above the polled load, which shares its slot —
// as a corrupted replay chain could.
type strayPoll struct {
	*driver
	polls int
}

func (d *strayPoll) PollLoad(lqIdx int, now uint64) (bool, int) {
	if d.polls++; d.polls == 50 {
		lqIdx += 256
	}
	return d.driver.PollLoad(lqIdx, now)
}

func TestPollOfNonLiveLoadIsRunError(t *testing.T) {
	prog, err := testprog.Build(1, testprog.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	drv := &strayPoll{driver: newDriver(prog, cfg.Cache, cfg.BPred)}
	pl, err := uarch.New(cfg.Uarch, prog, drv, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	eng := memo.NewEngine(pl, drv, cfg.Memo)
	func() {
		defer recoverRun(&err)
		_, err = eng.Run(defaultMaxCycles)
	}()
	var refused cachesim.RequestError
	if !errors.As(err, &refused) || !strings.HasPrefix(err.Error(), "core: poll of load ") ||
		!strings.HasSuffix(err.Error(), " with no live request") {
		t.Fatalf("run error = %v, want a refused poll", err)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	p := build(t, `
main:
	li t0, 100000
loop:
	addi t0, t0, -1
	bnez t0, loop
	halt
`)
	cfg := slowCfg()
	cfg.MaxCycles = 100
	if _, err := Run(p, cfg); err == nil {
		t.Error("slow: expected cycle-budget error")
	}
	cfg = fastCfg()
	cfg.MaxCycles = 100
	if _, err := Run(p, cfg); err == nil {
		t.Error("fast: expected cycle-budget error")
	}
}

func TestPipetrace(t *testing.T) {
	p := build(t, `
main:
	addi t0, zero, 3
	lw   t1, 0(sp)
	add  t2, t0, t1
	halt
`)
	var buf strings.Builder
	cfg := slowCfg()
	cfg.Observer = obs.New(obs.Options{PipetraceW: &buf})
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines < 5 {
		t.Fatalf("trace too short (%d lines):\n%s", lines, out)
	}
	// Every stage letter should appear somewhere in the trace.
	for _, st := range []string{"F ", "D ", "X ", "M ", "W "} {
		if !strings.Contains(out, st) {
			t.Errorf("trace missing stage %q:\n%s", st, out)
		}
	}
	// Tracing with memoization is episode-granular: detailed (recorded)
	// cycles get per-cycle lines; replayed chains get marker lines.
	p2 := build(t, `
main:
	li t0, 400
loop:
	addi t0, t0, -1
	bnez t0, loop
	halt
`)
	var fbuf strings.Builder
	cfg = fastCfg()
	cfg.Observer = obs.New(obs.Options{PipetraceW: &fbuf})
	res, err := Run(p2, cfg)
	if err != nil {
		t.Fatalf("trace + memoize: %v", err)
	}
	fout := fbuf.String()
	if !strings.Contains(fout, "fast-forward") {
		t.Errorf("memoized trace has no fast-forward markers:\n%.400s", fout)
	}
	if !strings.Contains(fout, "F ") {
		t.Errorf("memoized trace has no detailed cycles:\n%.400s", fout)
	}
	if res.Memo.Hits == 0 {
		t.Error("memoized traced run never fast-forwarded")
	}
}

func TestMemoGraphDotExport(t *testing.T) {
	p := build(t, `
main:
	li t0, 100
loop:
	addi t0, t0, -1
	bnez t0, loop
	halt
`)
	var buf strings.Builder
	cfg := fastCfg()
	cfg.MemoGraphDot = &buf
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph paction") || !strings.Contains(out, "advance") {
		t.Errorf("dot export:\n%.400s", out)
	}
}

// TestMinCCompiledProgramsIdentical runs a small corpus of compiled MinC
// programs through both engines: high-level code paths (deep call trees,
// stack traffic, dense short branches) must memoize exactly too.
func TestMinCCompiledProgramsIdentical(t *testing.T) {
	corpus := map[string]string{
		"ackermann": `
func ack(m, n) {
	if (m == 0) { return n + 1; }
	if (n == 0) { return ack(m - 1, 1); }
	return ack(m - 1, ack(m, n - 1));
}
func main() { check(ack(2, 6)); return 0; }
`,
		"matmul": `
var a[64];
var b[64];
var c[64];
func main() {
	var i = 0;
	while (i < 64) { a[i] = i * 3 + 1; b[i] = i ^ 21; i = i + 1; }
	i = 0;
	while (i < 8) {
		var j = 0;
		while (j < 8) {
			var s = 0;
			var k = 0;
			while (k < 8) { s = s + a[i*8+k] * b[k*8+j]; k = k + 1; }
			c[i*8+j] = s;
			j = j + 1;
		}
		i = i + 1;
	}
	check(c[0]); check(c[27]); check(c[63]);
	return 0;
}
`,
		"strings": `
var buf[128];
func hash(n) {
	var h = 5381;
	var i = 0;
	while (i < n) { h = h * 33 ^ buf[i]; i = i + 1; }
	return h;
}
func main() {
	var i = 0;
	var seed = 7;
	while (i < 128) {
		seed = seed * 1103515245 + 12345;
		buf[i] = (seed >> 9) & 0x7F;
		i = i + 1;
	}
	check(hash(128));
	check(hash(64));
	return 0;
}
`,
	}
	for name, src := range corpus {
		prog, err := minc.CompileProgram(name+".mc", src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slow, fast := runBoth(t, prog)
		checkIdentical(t, slow, fast, name)
		checkOracle(t, prog, fast, name)
	}
}
