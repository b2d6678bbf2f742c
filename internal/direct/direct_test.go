package direct

import (
	"math/rand"
	"strings"
	"testing"

	"fastsim/internal/asm"
	"fastsim/internal/bpred"
	"fastsim/internal/emulator"
	"fastsim/internal/program"
	"fastsim/internal/testprog"
)

func build(t *testing.T, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drive runs the engine to completion, resolving mispredicted branches with
// a randomized delay and order, imitating the out-of-order resolution the
// µ-architecture simulator produces. It enforces the bQ depth limit of 4.
func drive(t *testing.T, eng *Engine, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var pending []int // record indices of unresolved mispredicted branches
	for steps := 0; !eng.Halted; steps++ {
		if steps > 2_000_000 {
			t.Fatal("driver did not terminate")
		}
		idx, err := eng.RunToNextControlPoint()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		rec := eng.Rec(idx)
		if rec.Kind == KindBranch && rec.Mispredicted {
			pending = append(pending, idx)
		}
		mustResolve := (rec.Kind == KindHalt || rec.Kind == KindStall) && eng.Speculating()
		for len(pending) > 0 && (mustResolve || len(pending) >= 4 || r.Intn(3) == 0) {
			i := r.Intn(len(pending))
			if err := eng.Rollback(pending[i]); err != nil {
				t.Fatalf("rollback: %v", err)
			}
			pending = pending[:i]
			mustResolve = false
		}
	}
	if len(pending) != 0 || eng.Speculating() {
		t.Fatalf("halted with %d unresolved mispredicts, bq=%d", len(pending), eng.BQDepth())
	}
}

func TestCorrectPredictionNoCheckpoint(t *testing.T) {
	// A loop branch becomes well predicted; checkpoints appear only for
	// the mispredicted iterations (first taken and final exit).
	p := build(t, `
main:
	li  t0, 50
loop:
	addi t0, t0, -1
	bnez t0, loop
	halt
`)
	eng := New(p, bpred.New(512))
	drive(t, eng, 1)
	st := eng.Stats()
	if st.Checkpoints > 3 {
		t.Errorf("checkpoints = %d, want <= 3 for a well-predicted loop", st.Checkpoints)
	}
	if st.Rollbacks != st.Checkpoints {
		t.Errorf("rollbacks %d != checkpoints %d", st.Rollbacks, st.Checkpoints)
	}
}

func TestMispredictRollbackRestoresState(t *testing.T) {
	p := build(t, `
main:
	li   t0, 1
	li   t1, 7
	li   a0, 5
	bnez t0, target     # taken; cold predictor says not-taken => mispredict
	li   t1, 99         # wrong path
	sys  2              # wrong-path checksum update
	li   a0, 1
	sys  1              # wrong-path output
	halt                # wrong-path halt
target:
	halt
`)
	eng := New(p, bpred.New(512))

	// First control point: the mispredicted branch.
	idx, err := eng.RunToNextControlPoint()
	if err != nil {
		t.Fatal(err)
	}
	rec := eng.Rec(idx)
	if rec.Kind != KindBranch || !rec.Taken || !rec.Mispredicted {
		t.Fatalf("rec = %+v", rec)
	}
	if !eng.Speculating() {
		t.Fatal("no checkpoint after mispredict")
	}

	// Second: the wrong-path halt.
	idx2, err := eng.RunToNextControlPoint()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Rec(idx2).Kind != KindHalt {
		t.Fatalf("rec2 = %+v", eng.Rec(idx2))
	}
	if eng.Halted {
		t.Fatal("speculative halt must not latch Halted")
	}
	if eng.St.R[13] != 99 || len(eng.St.Output) != 1 || eng.St.Checksum == 0 {
		t.Fatal("wrong path did not execute")
	}

	// Resolve the branch: everything must revert.
	if err := eng.Rollback(idx); err != nil {
		t.Fatal(err)
	}
	if eng.St.R[13] != 7 {
		t.Errorf("t1 = %d, want 7", eng.St.R[13])
	}
	if len(eng.St.Output) != 0 || eng.St.Checksum != 0 {
		t.Error("output/checksum not rolled back")
	}
	if eng.St.Exited {
		t.Error("Exited not rolled back")
	}
	if eng.NumRecs() != idx+1 {
		t.Errorf("records not truncated: %d", eng.NumRecs())
	}
	want, _ := p.Symbol("target")
	if eng.PC != want {
		t.Errorf("resume pc = %#x, want %#x", eng.PC, want)
	}

	// Continue to the real halt.
	idx3, err := eng.RunToNextControlPoint()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Rec(idx3).Kind != KindHalt || !eng.Halted {
		t.Fatal("did not reach committed halt")
	}
}

func TestWrongPathStoresUndone(t *testing.T) {
	p := build(t, `
.data
x:	.word 1111
.text
main:
	li   t0, 1
	la   s0, x
	bnez t0, target
	li   t1, 2222       # wrong path
	sw   t1, 0(s0)
	sb   t1, 2(s0)
	halt
target:
	lw   a0, 0(s0)
	halt
`)
	eng := New(p, bpred.New(512))
	i1, _ := eng.RunToNextControlPoint()
	if _, err := eng.RunToNextControlPoint(); err != nil {
		t.Fatal(err)
	}
	if eng.St.Mem.ReadU32(program.DataBase) == 1111 {
		t.Fatal("wrong-path store did not execute")
	}
	if err := eng.Rollback(i1); err != nil {
		t.Fatal(err)
	}
	if got := eng.St.Mem.ReadU32(program.DataBase); got != 1111 {
		t.Errorf("memory = %d, want 1111 after rollback", got)
	}
	if eng.NumStores() != 0 {
		t.Errorf("sQ not truncated: %d", eng.NumStores())
	}
	drive(t, eng, 3)
	if eng.St.ExitCode != 1111 {
		t.Errorf("exit = %d", eng.St.ExitCode)
	}
}

func TestWrongPathInvalidPCStalls(t *testing.T) {
	p := build(t, `
main:
	li   t0, 1
	li   t1, 0x10       # garbage target (outside text)
	bnez t0, target
	jr   t1             # wrong path: jump to garbage
target:
	halt
`)
	eng := New(p, bpred.New(512))
	i1, _ := eng.RunToNextControlPoint()
	i2, err := eng.RunToNextControlPoint()
	if err != nil {
		t.Fatal(err)
	}
	// The wrong-path jr itself is an indirect-jump record; following it
	// lands at an invalid pc, which must produce a stall record.
	if eng.Rec(i2).Kind != KindIJump {
		t.Fatalf("rec2 = %+v", eng.Rec(i2))
	}
	i3, err := eng.RunToNextControlPoint()
	if err != nil {
		t.Fatal(err)
	}
	if eng.Rec(i3).Kind != KindStall {
		t.Fatalf("rec3 = %+v, want stall", eng.Rec(i3))
	}
	if err := eng.Rollback(i1); err != nil {
		t.Fatal(err)
	}
	drive(t, eng, 4)
}

func TestCommittedInvalidPCIsError(t *testing.T) {
	p := build(t, `
main:
	li t0, 0x10
	jr t0
`)
	eng := New(p, bpred.New(512))
	if _, err := eng.RunToNextControlPoint(); err != nil {
		t.Fatal(err) // the jr record itself
	}
	if _, err := eng.RunToNextControlPoint(); err == nil {
		t.Fatal("expected error for committed invalid pc")
	}
}

func TestLQSQRecording(t *testing.T) {
	p := build(t, `
.data
buf:	.space 32
.text
main:
	la  s0, buf
	li  t0, 0xAB
	sw  t0, 4(s0)
	lw  t1, 4(s0)
	lb  t2, 4(s0)
	fsd f0, 8(s0)
	fld f1, 8(s0)
	halt
`)
	eng := New(p, bpred.New(512))
	if _, err := eng.RunToNextControlPoint(); err != nil {
		t.Fatal(err)
	}
	if eng.NumLoads() != 3 || eng.NumStores() != 2 {
		t.Fatalf("lQ=%d sQ=%d, want 3/2", eng.NumLoads(), eng.NumStores())
	}
	base := uint32(program.DataBase)
	if eng.Load(0) != (LoadRec{base + 4, 4}) || eng.Load(1) != (LoadRec{base + 4, 1}) ||
		eng.Load(2) != (LoadRec{base + 8, 8}) {
		t.Errorf("lQ = %+v", []LoadRec{eng.Load(0), eng.Load(1), eng.Load(2)})
	}
	if eng.Store(0).Addr != base+4 || eng.Store(0).Width != 4 || eng.Store(0).Old != 0 {
		t.Errorf("sQ[0] = %+v", eng.Store(0))
	}
	if eng.Store(1).Addr != base+8 || eng.Store(1).Width != 8 {
		t.Errorf("sQ[1] = %+v", eng.Store(1))
	}
}

func TestRollbackUnknownRecord(t *testing.T) {
	p := build(t, "main: halt\n")
	eng := New(p, bpred.New(512))
	if err := eng.Rollback(0); err == nil {
		t.Error("rollback without checkpoint should fail")
	}
}

func TestNestedMispredicts(t *testing.T) {
	// Force two nested mispredicts, then resolve the outer one first:
	// both must be discarded and state restored to the outer checkpoint.
	p := build(t, `
main:
	li   t0, 1
	li   s3, 10
	bnez t0, t1dest       # mispredict 1 (taken, cold predictor)
	addi s3, s3, 1        # wrong path 1
	li   t2, 1
	bnez t2, t2dest       # mispredict 2 (nested, wrong path)
	addi s3, s3, 2        # wrong path 2
	halt
t2dest:
	addi s3, s3, 4
	halt
t1dest:
	halt
`)
	eng := New(p, bpred.New(512))
	i1, _ := eng.RunToNextControlPoint()
	if !eng.Rec(i1).Mispredicted {
		t.Fatal("first branch not mispredicted")
	}
	i2, _ := eng.RunToNextControlPoint()
	if eng.Rec(i2).Kind != KindBranch || !eng.Rec(i2).Mispredicted {
		t.Fatalf("rec2 = %+v", eng.Rec(i2))
	}
	if eng.BQDepth() != 2 {
		t.Fatalf("bq = %d", eng.BQDepth())
	}
	// Run the doubly-wrong path a bit.
	if _, err := eng.RunToNextControlPoint(); err != nil {
		t.Fatal(err)
	}
	// Resolve the outer branch: discards the inner checkpoint too.
	if err := eng.Rollback(i1); err != nil {
		t.Fatal(err)
	}
	if eng.BQDepth() != 0 {
		t.Errorf("bq = %d after outer rollback", eng.BQDepth())
	}
	if eng.St.R[25] != 10 { // s3
		t.Errorf("s3 = %d, want 10", eng.St.R[25])
	}
	drive(t, eng, 5)
}

// TestSpeculativeExecutionMatchesOracle is the package's central property:
// under randomized rollback timing and ordering, the architectural results
// of speculative direct-execution equal plain functional emulation.
func TestSpeculativeExecutionMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		opts := testprog.DefaultOptions()
		opts.Iterations = 60
		opts.Segments = 10
		p, err := testprog.Build(seed, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		oracle := emulator.New(p)
		if err := oracle.Run(50_000_000); err != nil {
			t.Fatalf("seed %d oracle: %v", seed, err)
		}

		eng := New(p, bpred.New(512))
		drive(t, eng, seed*7+1)

		if eng.St.Checksum != oracle.Checksum {
			t.Errorf("seed %d: checksum %#x != oracle %#x", seed, eng.St.Checksum, oracle.Checksum)
		}
		if eng.St.ExitCode != oracle.ExitCode {
			t.Errorf("seed %d: exit %d != oracle %d", seed, eng.St.ExitCode, oracle.ExitCode)
		}
		if string(eng.St.Output) != string(oracle.Output) {
			t.Errorf("seed %d: output diverged", seed)
		}
		for r := 0; r < 32; r++ {
			if eng.St.R[r] != oracle.R[r] {
				t.Errorf("seed %d: r%d = %#x != oracle %#x", seed, r, eng.St.R[r], oracle.R[r])
			}
		}
		for r := 0; r < 32; r++ {
			if eng.St.F[r] != oracle.F[r] {
				t.Errorf("seed %d: f%d = %v != oracle %v", seed, r, eng.St.F[r], oracle.F[r])
			}
		}
		st := eng.Stats()
		if st.Insts < oracle.InstCount {
			t.Errorf("seed %d: direct executed %d < oracle %d", seed, st.Insts, oracle.InstCount)
		}
		if st.BQHighWater > 5 {
			t.Errorf("seed %d: bq high water %d", seed, st.BQHighWater)
		}
	}
}

func TestDirectStatsWrongPathCounting(t *testing.T) {
	p := build(t, `
main:
	li   t0, 1
	bnez t0, target
	addi t1, t1, 1      # wrong path, 3 insts then halt
	addi t1, t1, 1
	addi t1, t1, 1
	halt
target:
	halt
`)
	eng := New(p, bpred.New(512))
	i1, _ := eng.RunToNextControlPoint()
	if _, err := eng.RunToNextControlPoint(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.WrongPathInsts != 4 { // 3 addi + wrong-path halt
		t.Errorf("wrong path insts = %d, want 4", st.WrongPathInsts)
	}
	if err := eng.Rollback(i1); err != nil {
		t.Fatal(err)
	}
	drive(t, eng, 6)
}

func TestHaltedEngineRejectsRun(t *testing.T) {
	p := build(t, "main: halt\n")
	eng := New(p, bpred.New(512))
	if _, err := eng.RunToNextControlPoint(); err != nil {
		t.Fatal(err)
	}
	if !eng.Halted {
		t.Fatal("not halted")
	}
	if _, err := eng.RunToNextControlPoint(); err == nil {
		t.Error("run after halt should fail")
	}
}

func TestLongStraightLineBlocks(t *testing.T) {
	// A straight-line run longer than MaxBlockInsts must chain capped
	// blocks transparently.
	var sb strings.Builder
	sb.WriteString("main:\n")
	n := MaxBlockInsts + 500
	for i := 0; i < n; i++ {
		sb.WriteString("\taddi t0, t0, 1\n")
	}
	sb.WriteString("\tmv a0, t0\n\tsys 2\n\thalt\n")
	p := build(t, sb.String())
	eng := New(p, bpred.New(512))
	if _, err := eng.RunToNextControlPoint(); err != nil {
		t.Fatal(err)
	}
	if got := eng.St.R[12]; got != uint32(n) {
		t.Errorf("t0 = %d, want %d", got, n)
	}
	if eng.Stats().Insts != uint64(n)+3 {
		t.Errorf("insts = %d, want %d", eng.Stats().Insts, n+3)
	}
}

func TestWrongPathRunsOffTextEnd(t *testing.T) {
	p := build(t, `
main:
	j    start
target:
	halt
start:
	li   t0, 1
	bnez t0, target     # mispredicted: the wrong path falls through
	addi t1, t1, 1
	addi t1, t1, 2      # last text word
`)
	eng := New(p, bpred.New(512))
	i1, err := eng.RunToNextControlPoint()
	if err != nil || !eng.Rec(i1).Mispredicted {
		t.Fatalf("rec1 = %+v, %v", eng.Rec(i1), err)
	}
	i2, err := eng.RunToNextControlPoint()
	if err != nil {
		t.Fatal(err)
	}
	if r := eng.Rec(i2); r.Kind != KindStall || r.PC != p.TextEnd() {
		t.Fatalf("rec2 = %+v, want a stall at the text end %#x", r, p.TextEnd())
	}
	if got := eng.Stats().WrongPathInsts; got != 2 {
		t.Errorf("wrong-path insts = %d, want 2", got)
	}
	if err := eng.Rollback(i1); err != nil {
		t.Fatal(err)
	}
	drive(t, eng, 1)
}

func TestBlockTable(t *testing.T) {
	p := build(t, `
main:
	li   t0, 20
loop:
	addi t0, t0, -1
	sw   t0, 0(sp)
	bnez t0, loop
	halt
`)
	eng := New(p, bpred.New(512))
	if len(eng.blocks) != len(p.Text) {
		t.Fatalf("table has %d slots for %d text words", len(eng.blocks), len(p.Text))
	}
	drive(t, eng, 1)
	compiled := 0
	for _, b := range eng.blocks {
		if b != nil {
			compiled++
			if cap(b.body) != len(b.body) {
				t.Errorf("block at %#x: body cap %d, len %d", b.pc, cap(b.body), len(b.body))
			}
		}
	}
	if compiled != 3 { // from main, from loop, and the halt
		t.Errorf("%d blocks compiled, want 3", compiled)
	}
	// A pc outside the text or unaligned has no slot, and visiting it
	// allocates nothing.
	for _, pc := range []uint32{0, 0x10, program.TextBase - 4, program.TextBase + 2, p.TextEnd(), 0xFFFFFFFC} {
		if eng.blockAt(pc) != nil {
			t.Errorf("pc %#x has a block", pc)
		}
		if n := testing.AllocsPerRun(10, func() { eng.blockAt(pc) }); n != 0 {
			t.Errorf("visiting pc %#x allocates %v times", pc, n)
		}
	}
}
