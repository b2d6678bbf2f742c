package uarch

import (
	"strings"
	"testing"

	"fastsim/internal/asm"
	"fastsim/internal/direct"
	"fastsim/internal/isa"
	"fastsim/internal/program"
)

// fakeEnv scripts the pipeline's environment: control outcomes are served
// in order, loads complete after a fixed delay, and every interaction is
// recorded for assertions.
type fakeEnv struct {
	t        *testing.T
	outcomes []Outcome
	next     int

	loadDelay int // first interval returned for loads
	pollMore  int // 0: ready at first poll; else one more interval

	issuedLoads  []int
	polledLoads  []int
	issuedStores []int
	cancels      []int
	rollbacks    []int
	rollLQ       int
	rollSQ       int
	popInsts     int
	popLoads     int
	popStores    int
	popRecs      int
	halted       bool

	polls map[int]int // per-load poll count
}

func newFakeEnv(t *testing.T) *fakeEnv {
	return &fakeEnv{t: t, loadDelay: 2, polls: map[int]int{}}
}

func (f *fakeEnv) NextOutcome() Outcome {
	if f.next >= len(f.outcomes) {
		f.t.Fatalf("fetch requested outcome %d, only %d scripted", f.next, len(f.outcomes))
	}
	o := f.outcomes[f.next]
	o.RecIdx = f.next
	f.next++
	return o
}

func (f *fakeEnv) IssueLoad(lq int, now uint64) int {
	f.issuedLoads = append(f.issuedLoads, lq)
	return f.loadDelay
}

func (f *fakeEnv) PollLoad(lq int, now uint64) (bool, int) {
	f.polledLoads = append(f.polledLoads, lq)
	f.polls[lq]++
	if f.pollMore > 0 && f.polls[lq] == 1 {
		return false, f.pollMore
	}
	return true, 0
}

func (f *fakeEnv) CancelLoad(lq int) { f.cancels = append(f.cancels, lq) }

func (f *fakeEnv) IssueStore(sq int, now uint64) { f.issuedStores = append(f.issuedStores, sq) }

func (f *fakeEnv) Rollback(rec int) (int, int) {
	f.rollbacks = append(f.rollbacks, rec)
	return f.rollLQ, f.rollSQ
}

func (f *fakeEnv) RetirePop(insts, loads, stores, recs int) {
	f.popInsts += insts
	f.popLoads += loads
	f.popStores += stores
	f.popRecs += recs
}

func (f *fakeEnv) HaltRetired() { f.halted = true }

func buildProg(t *testing.T, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble("u.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runToDone(t *testing.T, pl *Pipeline, maxCycles int) {
	t.Helper()
	for i := 0; !pl.Done(); i++ {
		if i > maxCycles {
			t.Fatalf("pipeline did not finish within %d cycles", maxCycles)
		}
		pl.Step()
	}
}

func haltOutcome(pc uint32) Outcome {
	return Outcome{Kind: direct.KindHalt, PC: pc}
}

func TestStraightLineRetiresAll(t *testing.T) {
	p := buildProg(t, `
main:
	addi t0, zero, 1
	addi t1, zero, 2
	add  t2, t0, t1
	halt
`)
	env := newFakeEnv(t)
	env.outcomes = []Outcome{haltOutcome(p.Entry + 12)}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, pl, 100)
	if !env.halted {
		t.Fatal("halt not reported")
	}
	if env.popInsts != 4 {
		t.Errorf("retired %d, want 4", env.popInsts)
	}
	if env.popRecs != 1 {
		t.Errorf("records popped %d, want 1", env.popRecs)
	}
	if pl.Now < 5 || pl.Now > 20 {
		t.Errorf("cycles = %d, implausible", pl.Now)
	}
}

func TestDependentChainSlower(t *testing.T) {
	dep := buildProg(t, `
main:
	add t0, t0, t1
	add t0, t0, t1
	add t0, t0, t1
	add t0, t0, t1
	add t0, t0, t1
	add t0, t0, t1
	halt
`)
	ind := buildProg(t, `
main:
	add t0, t0, t1
	add t2, t3, t4
	add t5, t6, t7
	add t8, t9, t1
	add s0, s1, s2
	add s3, s4, s5
	halt
`)
	run := func(p *program.Program) uint64 {
		env := newFakeEnv(t)
		env.outcomes = []Outcome{haltOutcome(p.Entry + 24)}
		pl, err := New(DefaultParams(), p, env, p.Entry)
		if err != nil {
			t.Fatal(err)
		}
		runToDone(t, pl, 200)
		return pl.Now
	}
	d, i := run(dep), run(ind)
	if d <= i {
		t.Errorf("dependent chain %d cycles, independent %d: no dependence modelling", d, i)
	}
}

func TestLoadIssueAndPoll(t *testing.T) {
	p := buildProg(t, `
main:
	lw  t0, 0(sp)
	add t1, t0, t0
	halt
`)
	env := newFakeEnv(t)
	env.loadDelay = 5
	env.pollMore = 7 // miss revealed on first poll
	env.outcomes = []Outcome{haltOutcome(p.Entry + 8)}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, pl, 200)
	if len(env.issuedLoads) != 1 || env.issuedLoads[0] != 0 {
		t.Errorf("issued loads = %v", env.issuedLoads)
	}
	if len(env.polledLoads) != 2 {
		t.Errorf("polled %d times, want 2 (interval protocol)", len(env.polledLoads))
	}
	// The dependent add must wait for the full 5+7 cycles of cache time.
	if pl.Now < 12 {
		t.Errorf("cycles = %d, load latency not respected", pl.Now)
	}
	if env.popLoads != 1 {
		t.Errorf("load pops = %d", env.popLoads)
	}
}

func TestStoresIssueInOrder(t *testing.T) {
	p := buildProg(t, `
main:
	sw t0, 0(sp)
	sw t1, 4(sp)
	sw t2, 8(sp)
	halt
`)
	env := newFakeEnv(t)
	env.outcomes = []Outcome{haltOutcome(p.Entry + 12)}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, pl, 200)
	if len(env.issuedStores) != 3 {
		t.Fatalf("stores issued: %v", env.issuedStores)
	}
	for i, s := range env.issuedStores {
		if s != i {
			t.Errorf("store order %v, want 0,1,2", env.issuedStores)
			break
		}
	}
	if env.popStores != 3 {
		t.Errorf("store pops = %d", env.popStores)
	}
}

func TestBranchCorrectPrediction(t *testing.T) {
	p := buildProg(t, `
main:
	beq t0, t1, target
	addi t2, zero, 1
	halt
target:
	halt
`)
	// Not-taken, correctly predicted: fall through to the first halt.
	env := newFakeEnv(t)
	env.outcomes = []Outcome{
		{Kind: direct.KindBranch, PC: p.Entry, Taken: false, Mispredicted: false},
		haltOutcome(p.Entry + 8),
	}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, pl, 100)
	if len(env.rollbacks) != 0 {
		t.Errorf("rollbacks on a correct prediction: %v", env.rollbacks)
	}
	if env.popInsts != 3 {
		t.Errorf("retired %d, want 3", env.popInsts)
	}
}

func TestBranchMispredictSquashAndRollback(t *testing.T) {
	p := buildProg(t, `
main:
	lw  t0, 0(sp)       # slow producer: delays the branch's resolution
	beq t0, t1, target
	lw  t2, 4(sp)       # wrong path: an in-flight load to cancel
	addi t3, zero, 1
	halt
target:
	halt
`)
	// Actually taken but predicted not-taken: fetch goes down the fall-
	// through (wrong) path, then the branch resolves and redirects.
	env := newFakeEnv(t)
	env.loadDelay = 50 // both loads linger; the branch waits on the first
	env.outcomes = []Outcome{
		{Kind: direct.KindBranch, PC: p.Entry + 4, Taken: true, Mispredicted: true},
		haltOutcome(p.Entry + 16), // wrong-path halt record
		haltOutcome(p.Entry + 20), // correct-path halt record
	}
	env.rollLQ, env.rollSQ = 1, 0
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, pl, 500)
	if len(env.rollbacks) != 1 || env.rollbacks[0] != 0 {
		t.Fatalf("rollbacks = %v, want [0]", env.rollbacks)
	}
	if len(env.cancels) != 1 || env.cancels[0] != 1 {
		t.Errorf("cancels = %v, want wrong-path load (lQ slot 1) cancelled", env.cancels)
	}
	// The committed load, the branch and the target-side halt retire.
	if env.popInsts != 3 {
		t.Errorf("retired %d, want 3", env.popInsts)
	}
}

func TestSpeculationDepthLimit(t *testing.T) {
	// Five unresolved branches in a row: fetch must stop at 4.
	p := buildProg(t, `
main:
	beq t0, t1, x1
x1:	beq t0, t1, x2
x2:	beq t0, t1, x3
x3:	beq t0, t1, x4
x4:	beq t0, t1, x5
x5:	halt
`)
	env := newFakeEnv(t)
	for i := 0; i < 5; i++ {
		env.outcomes = append(env.outcomes,
			Outcome{Kind: direct.KindBranch, PC: p.Entry + uint32(4*i), Taken: true})
	}
	env.outcomes = append(env.outcomes, haltOutcome(p.Entry+20))
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	maxUnresolved := 0
	for i := 0; !pl.Done() && i < 300; i++ {
		pl.Step()
		n := 0
		for _, e := range pl.Entries() {
			if e.Class == isa.ClassBranch && e.Stage != StDone {
				n++
			}
		}
		if n > maxUnresolved {
			maxUnresolved = n
		}
	}
	if !pl.Done() {
		t.Fatal("did not finish")
	}
	if maxUnresolved > DefaultParams().MaxSpecBranches {
		t.Errorf("unresolved branches reached %d, limit %d",
			maxUnresolved, DefaultParams().MaxSpecBranches)
	}
}

func TestJalrStallsFetchUntilResolved(t *testing.T) {
	p := buildProg(t, `
main:
	jalr zero, t0, 0
after:
	halt
`)
	env := newFakeEnv(t)
	env.outcomes = []Outcome{
		{Kind: direct.KindIJump, PC: p.Entry, Taken: true, Target: p.Entry + 4},
		haltOutcome(p.Entry + 4),
	}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	sawStall := false
	for i := 0; !pl.Done() && i < 100; i++ {
		pl.Step()
		es := pl.Entries()
		if len(es) == 1 && es[0].Class == isa.ClassJumpInd && es[0].Stage != StDone {
			sawStall = true
		}
	}
	if !pl.Done() {
		t.Fatal("did not finish")
	}
	if !sawStall {
		t.Error("fetch did not stall behind the unresolved jalr")
	}
}

func TestWrongPathStallRecord(t *testing.T) {
	// A mispredicted branch whose wrong path falls off the text segment:
	// fetch must consume the stall record and park until the rollback.
	p := buildProg(t, `
main:
	beq t0, t1, target
target:
	halt
`)
	// Predicted taken (wrongly): taken target is 'target'; actual is the
	// fall-through... invert: actual not-taken, predicted taken. Wrong
	// path = target chain; make the *predicted* path run off text by
	// branching to the very end.
	env := newFakeEnv(t)
	env.outcomes = []Outcome{
		{Kind: direct.KindBranch, PC: p.Entry, Taken: false, Mispredicted: true},
		// fetch follows predicted-taken to 'target' (valid), so it will
		// fetch halt there; serve its record, then the stall never
		// happens — instead serve correct-path halt after rollback.
		haltOutcome(p.Entry + 4),
		haltOutcome(p.Entry + 4),
	}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, pl, 200)
	if len(env.rollbacks) != 1 {
		t.Errorf("rollbacks = %v", env.rollbacks)
	}
}

func TestRetireWidthLimit(t *testing.T) {
	p := buildProg(t, `
main:
	addi t0, zero, 1
	addi t1, zero, 1
	addi t2, zero, 1
	addi t3, zero, 1
	addi t4, zero, 1
	addi t5, zero, 1
	addi t6, zero, 1
	addi t7, zero, 1
	halt
`)
	env := newFakeEnv(t)
	env.outcomes = []Outcome{haltOutcome(p.Entry + 32)}
	params := DefaultParams()
	pl, err := New(params, p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i := 0; !pl.Done() && i < 100; i++ {
		pl.Step()
		retiredThisCycle := env.popInsts - prev
		if retiredThisCycle > params.RetireWidth {
			t.Fatalf("retired %d in one cycle, width %d", retiredThisCycle, params.RetireWidth)
		}
		prev = env.popInsts
	}
}

func TestIssueQueueCapacity(t *testing.T) {
	// More independent loads than the 16-entry address queue: occupancy
	// must never exceed the cap.
	src := "main:\n"
	for i := 0; i < 24; i++ {
		src += "\tlw t0, 0(sp)\n"
	}
	src += "\thalt\n"
	p := buildProg(t, src)
	env := newFakeEnv(t)
	env.loadDelay = 60 // loads linger
	env.outcomes = []Outcome{haltOutcome(p.Entry + 24*4)}
	params := DefaultParams()
	pl, err := New(params, p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !pl.Done() && i < 3000; i++ {
		pl.Step()
		occ := 0
		for _, e := range pl.Entries() {
			if e.Stage == StQueued && e.Class.Queue() == isa.QueueAddr {
				occ++
			}
		}
		if occ > params.AddrQueue {
			t.Fatalf("address queue occupancy %d > %d", occ, params.AddrQueue)
		}
	}
	if !pl.Done() {
		t.Fatal("did not finish")
	}
}

func TestPhysicalRegisterLimit(t *testing.T) {
	// A long run of integer defs with a stuck oldest instruction: in-flight
	// defs must never exceed PhysInt - 32.
	src := "main:\n\tlw s0, 0(sp)\n"
	for i := 0; i < 40; i++ {
		src += "\taddi t0, s0, 1\n" // all depend on the slow load
	}
	src += "\thalt\n"
	p := buildProg(t, src)
	env := newFakeEnv(t)
	env.loadDelay = 200
	env.outcomes = []Outcome{haltOutcome(p.Entry + 41*4)}
	params := DefaultParams()
	pl, err := New(params, p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !pl.Done() && i < 5000; i++ {
		pl.Step()
		defs := 0
		for _, e := range pl.Entries() {
			if e.Stage == StFetched {
				continue
			}
			if d := e.Inst.Def(); d != isa.RegNone && !d.IsFP() {
				defs++
			}
		}
		if defs > params.PhysInt-isa.NumIntRegs {
			t.Fatalf("in-flight int defs %d > %d", defs, params.PhysInt-isa.NumIntRegs)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.FetchWidth = 0 },
		func(p *Params) { p.IntQueue = 0 },
		func(p *Params) { p.IntALUs = 0 },
		func(p *Params) { p.PhysInt = 32 },
		func(p *Params) { p.MaxSpecBranches = -1 },
		func(p *Params) { p.ActiveList = 0 },
		func(p *Params) { p.ActiveList = 300 },
	}
	for i, mut := range cases {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
	if _, err := New(Params{}, nil, nil, 0); err == nil {
		t.Error("New accepted zero params")
	}
}

func TestNonPipelinedDivide(t *testing.T) {
	// Two independent divides cannot overlap: the second must wait for the
	// first to leave the (non-pipelined) divider.
	p := buildProg(t, `
main:
	div t0, t1, t2
	div t3, t4, t5
	halt
`)
	env := newFakeEnv(t)
	env.outcomes = []Outcome{haltOutcome(p.Entry + 8)}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, pl, 500)
	// One divide is 34 cycles; two serialized > 68.
	if pl.Now < 68 {
		t.Errorf("two divides finished in %d cycles — divider seems pipelined", pl.Now)
	}
}

// BenchmarkDetailedCycle measures the raw cost of one detailed-simulation
// cycle — the cost fast-forwarding avoids. Compare with the replay cost in
// the repository root's BenchmarkComponents.
func BenchmarkDetailedCycle(b *testing.B) {
	src := "main:\n"
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			src += "\tadd t0, t1, t2\n"
		case 1:
			src += "\tmul t3, t4, t5\n"
		case 2:
			src += "\txor t6, t7, t8\n"
		case 3:
			src += "\taddi t9, t9, 1\n"
		}
	}
	src += "\thalt\n"
	p, err := asm.Assemble("b.s", src)
	if err != nil {
		b.Fatal(err)
	}
	env := newFakeEnv(&testing.T{})
	env.outcomes = []Outcome{haltOutcome(p.Entry + 200*4)}
	cycles := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.next = 0
		env.halted = false
		pl, _ := New(DefaultParams(), p, env, p.Entry)
		for !pl.Done() {
			pl.Step()
			cycles++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// BenchmarkEncodeConfig measures the configuration snapshot cost paid at
// every episode boundary in detailed mode.
func BenchmarkEncodeConfig(b *testing.B) {
	p, err := asm.Assemble("b.s", `
main:
	lw   t0, 0(sp)
	add  t1, t0, t0
	mul  t2, t1, t1
	beq  t2, t0, main
	halt
`)
	if err != nil {
		b.Fatal(err)
	}
	env := newFakeEnv(&testing.T{})
	env.loadDelay = 100
	env.outcomes = []Outcome{
		{Kind: direct.KindBranch, PC: p.Entry + 12, Taken: false},
		haltOutcome(p.Entry + 16),
	}
	pl, _ := New(DefaultParams(), p, env, p.Entry)
	for i := 0; i < 6; i++ {
		pl.Step() // fill the iQ
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = pl.EncodeConfig(buf[:0])
	}
	b.ReportMetric(float64(len(buf)), "bytes")
}

func TestActiveListCap(t *testing.T) {
	// A stuck oldest load with plenty of independent work behind it: the
	// iQ must never exceed the active-list size.
	src := "main:\n\tlw s0, 0(sp)\n\tadd s1, s0, s0\n" // consumer pins retirement
	for i := 0; i < 60; i++ {
		src += "\taddi t0, zero, 1\n"
	}
	src += "\thalt\n"
	p := buildProg(t, src)
	env := newFakeEnv(t)
	env.loadDelay = 300
	env.outcomes = []Outcome{haltOutcome(p.Entry + 62*4)}
	params := DefaultParams()
	pl, err := New(params, p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	maxIQ := 0
	for i := 0; !pl.Done() && i < 5000; i++ {
		pl.Step()
		if n := len(pl.Entries()); n > maxIQ {
			maxIQ = n
		}
	}
	if !pl.Done() {
		t.Fatal("did not finish")
	}
	if maxIQ > params.ActiveList {
		t.Errorf("iQ reached %d entries, active list is %d", maxIQ, params.ActiveList)
	}
	if maxIQ < params.ActiveList {
		t.Errorf("iQ only reached %d — the stall did not fill the window", maxIQ)
	}
}

func TestStageStringsAndDesync(t *testing.T) {
	for s := StFetched; s < numStages; s++ {
		if s.String() == "" {
			t.Errorf("stage %d has no name", s)
		}
	}
	d := Desync{Msg: "boom"}
	if !strings.Contains(d.Error(), "boom") {
		t.Error("Desync.Error")
	}
	if errParams("x").Error() != "uarch: x" {
		t.Error("errParams.Error")
	}
	defer func() {
		if recover() == nil {
			t.Error("desync() did not panic")
		}
	}()
	desync("test %d", 42)
}

func TestDumpConfig(t *testing.T) {
	p := buildProg(t, `
main:
	lw  t0, 0(sp)
	beq t0, t1, main
	halt
`)
	env := newFakeEnv(t)
	env.loadDelay = 40
	env.outcomes = []Outcome{
		{Kind: direct.KindBranch, PC: p.Entry + 4, Taken: false},
		haltOutcome(p.Entry + 8),
	}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pl.Step()
	}
	key := pl.EncodeConfig(nil)
	out := DumpConfig(p, key)
	for _, want := range []string{"fetch=", "lw", "beq", "taken=false"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(DumpConfig(p, []byte{1}), "bad config") {
		t.Error("bad key not reported")
	}
	runToDone(t, pl, 300)
}

// loopSrc is an endless loop over loads, a divide, FP add and square root,
// a store and a conditional branch, served by loopEnv.
const loopSrc = `
main:
	lw    t0, 0(sp)
	add   t1, t0, t2
	div   t3, t1, t0
	fadd  f1, f2, f3
	fsqrt f4, f1
	sw    t1, 4(sp)
	addi  t2, t2, 1
	bne   t2, zero, main
	j     main
`

// newLoopPipeline returns a pipeline from New fetching loopSrc, with its
// loopEnv.
func newLoopPipeline(t testing.TB) (*Pipeline, *loopEnv) {
	t.Helper()
	p, err := asm.Assemble("loop.s", loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	env := &loopEnv{branchPC: p.Entry + 7*isa.WordSize}
	pl, err := New(DefaultParams(), p, env, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	return pl, env
}

// loopEnv serves an endless loop branch, taken and mispredicted every fifth
// time, and completes every load after a fixed interval, all without
// allocating.
type loopEnv struct {
	branchPC uint32
	n        int
}

func (l *loopEnv) NextOutcome() Outcome {
	l.n++
	return Outcome{Kind: direct.KindBranch, PC: l.branchPC, Taken: true, Mispredicted: l.n%5 == 0, RecIdx: l.n}
}
func (l *loopEnv) IssueLoad(int, uint64) int            { return 3 }
func (l *loopEnv) PollLoad(int, uint64) (bool, int)     { return true, 0 }
func (l *loopEnv) CancelLoad(int)                       {}
func (l *loopEnv) IssueStore(int, uint64)               {}
func (l *loopEnv) Rollback(int) (int, int)              { return 0, 0 }
func (l *loopEnv) RetirePop(insts, loads, st, recs int) {}
func (l *loopEnv) HaltRetired()                         {}

// TestStepAllocatesNothing: once the iQ has filled, a detailed cycle —
// issue with its register check, decode, fetch, retirement and mispredict
// squashes — allocates nothing.
func TestStepAllocatesNothing(t *testing.T) {
	pl, env := newLoopPipeline(t)
	for i := 0; i < 1000; i++ {
		pl.Step()
	}
	if avg := testing.AllocsPerRun(1000, pl.Step); avg != 0 {
		t.Errorf("Step allocates %.2f times per cycle in steady state, want 0", avg)
	}
	// The divide bounds the loop at one iteration per ~34 cycles.
	if pl.Done() || env.n < 50 {
		t.Fatalf("loop did not keep running (done %v, %d outcomes)", pl.Done(), env.n)
	}
}
