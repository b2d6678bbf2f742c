package direct

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fastsim/internal/emulator"
	"fastsim/internal/isa"
	"fastsim/internal/program"
	"fastsim/internal/workloads"
)

// opCase is one instruction at pc and the state it runs against: the
// registers, and mem written at address base.
type opCase struct {
	inst isa.Inst
	pc   uint32
	r    [isa.NumIntRegs]uint32
	f    [isa.NumFPRegs]float64
	base uint32
	mem  []byte
}

func (c *opCase) state() *emulator.State {
	st := &emulator.State{Mem: program.NewMemory(), R: c.r, F: c.f}
	st.R[0] = 0
	for k, b := range c.mem {
		st.Mem.WriteU8(c.base+uint32(k), b)
	}
	return st
}

// addr is the case's effective address for a load or store.
func (c *opCase) addr() uint32 {
	st := c.state()
	return st.R[c.inst.Rs1] + uint32(c.inst.Imm)
}

// checkOp runs c's instruction through its compiled form and through
// emulator.StepInst on identical states and fails on any difference in
// the resulting state or next pc. It also checks the lQ/sQ records
// against the pre-state: a load records R[rs1]+imm and its width, a store
// also the memory value it overwrites, and nothing else records.
func checkOp(t testing.TB, c opCase) {
	t.Helper()
	want, got := c.state(), c.state()
	wantNext := emulator.StepInst(want, c.inst, c.pc)
	e := &Engine{St: got}
	gotNext := c.pc + isa.WordSize
	if termKindOf(c.inst) != termCap {
		gotNext = compileTerm(c.inst)(got, c.inst, c.pc)
	} else {
		o := compileOp(c.inst)
		o.fn(e, got, &o.inst)
	}

	if gotNext != wantNext {
		t.Errorf("%v at %#x: next pc %#x, want %#x", c.inst, c.pc, gotNext, wantNext)
	}
	if got.R != want.R {
		t.Errorf("%v: R = %v, want %v", c.inst, got.R, want.R)
	}
	for k := range got.F {
		if math.Float64bits(got.F[k]) != math.Float64bits(want.F[k]) {
			t.Errorf("%v: F[%d] = %v, want %v", c.inst, k, got.F[k], want.F[k])
		}
	}
	if got.Checksum != want.Checksum || !bytes.Equal(got.Output, want.Output) ||
		got.Exited != want.Exited || got.ExitCode != want.ExitCode {
		t.Errorf("%v: side effects differ: got %+v, want %+v", c.inst, got, want)
	}
	a := c.addr()
	if got.Mem.Pages() != want.Mem.Pages() {
		t.Errorf("%v: %d pages, want %d", c.inst, got.Mem.Pages(), want.Mem.Pages())
	}
	for k := uint32(0); k < 24; k++ { // every byte an access at a can touch
		if g, w := got.Mem.ReadU8(a-8+k), want.Mem.ReadU8(a-8+k); g != w {
			t.Errorf("%v: mem[%#x] = %#x, want %#x", c.inst, a-8+k, g, w)
		}
	}

	var wantLQ []LoadRec
	var wantSQ []StoreRec
	w := c.inst.MemWidth()
	switch c.inst.Class() {
	case isa.ClassLoad:
		wantLQ = []LoadRec{{Addr: a, Width: uint8(w)}}
	case isa.ClassStore:
		wantSQ = []StoreRec{{Addr: a, Old: c.state().Mem.ReadN(a, w), Width: uint8(w)}}
	}
	if len(e.lq) != len(wantLQ) || len(wantLQ) > 0 && e.lq[0] != wantLQ[0] {
		t.Errorf("%v: lQ %+v, want %+v", c.inst, e.lq, wantLQ)
	}
	if len(e.sq) != len(wantSQ) || len(wantSQ) > 0 && e.sq[0] != wantSQ[0] {
		t.Errorf("%v: sQ %+v, want %+v", c.inst, e.sq, wantSQ)
	}
}

var (
	edgeWords  = []uint32{0, 1, 2, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFE, 4095, 4096}
	edgeFloats = []float64{0, math.Copysign(0, -1), 0.5, -1.5, 1e300, -1e-300,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxInt32, math.MaxInt32 + 0.5,
		math.MinInt32, math.MinInt32 - 1, 3e9, -3e9}
)

// randomCase draws a case for op. Registers come from {r0, r1, r2} half
// the time, so rd = r0 and rd = rs1 are common; values and immediates
// favour edge values; loads and stores hit a page edge half the time.
func randomCase(r *rand.Rand, op isa.Opcode) opCase {
	reg := func() uint8 {
		if r.Intn(2) == 0 {
			return uint8(r.Intn(3))
		}
		return uint8(r.Intn(isa.NumIntRegs))
	}
	c := opCase{inst: isa.Inst{Op: op, Rd: reg(), Rs1: reg(), Rs2: reg()},
		pc: program.TextBase + isa.WordSize*uint32(r.Intn(1<<16))}
	for k := range c.r {
		c.r[k] = r.Uint32()
		if r.Intn(2) == 0 {
			c.r[k] = edgeWords[r.Intn(len(edgeWords))]
		}
	}
	for k := range c.f {
		c.f[k] = r.NormFloat64() * 1e6
		if r.Intn(2) == 0 {
			c.f[k] = edgeFloats[r.Intn(len(edgeFloats))]
		}
	}
	switch op.Format() {
	case isa.FmtB, isa.FmtJ:
		c.inst.Imm = isa.WordSize * int32(r.Intn(64)-32) // includes +4: taken == fallthrough
	case isa.FmtS:
		c.inst.Imm = int32(r.Intn(4)) // exit, putc, check, unknown
	default:
		c.inst.Imm = int32(r.Intn(1<<14)) - 1<<13
		if r.Intn(4) == 0 {
			c.inst.Imm = int32(edgeWords[r.Intn(len(edgeWords))])
		}
	}
	if op.Class().IsMem() {
		a := program.DataBase + uint32(r.Intn(64))<<12 + uint32(r.Intn(4096))
		if r.Intn(2) == 0 {
			a = a&^4095 + 4096 - uint32(1+r.Intn(8)) // straddles a page edge for wide accesses
		}
		if c.inst.Rs1 != 0 {
			c.r[c.inst.Rs1] = a - uint32(c.inst.Imm)
		}
		c.base = c.addr() - 8
		c.mem = make([]byte, 24)
		r.Read(c.mem)
	}
	return c
}

// edgeCases are the cases every handler must get right by construction.
func edgeCases() []opCase {
	var cs []opCase
	add := func(op isa.Opcode, rd, rs1, rs2 uint8, imm int32, set func(c *opCase)) {
		c := opCase{inst: isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}, pc: program.TextBase}
		for k := range c.r {
			c.r[k] = 0x9E3779B9 * uint32(k)
			c.f[k] = float64(k) * 1.25
		}
		if set != nil {
			set(&c)
		}
		c.base = c.addr() - 8
		c.mem = []byte("0123456789abcdefghijklmn")
		cs = append(cs, c)
	}
	for op := isa.Opcode(1); int(op) < isa.NumOpcodes; op++ {
		if op.Valid() {
			add(op, 0, 1, 2, 4, nil) // rd = r0
		}
	}
	for _, op := range []isa.Opcode{isa.OpLw, isa.OpLh, isa.OpLhu, isa.OpLb, isa.OpLbu} {
		add(op, 3, 3, 0, 8, func(c *opCase) { c.r[3] = program.DataBase }) // rd == rs1
	}
	for _, op := range []isa.Opcode{isa.OpDiv, isa.OpRem} {
		add(op, 3, 1, 2, 0, func(c *opCase) { c.r[2] = 0 })
		add(op, 3, 1, 2, 0, func(c *opCase) { c.r[1], c.r[2] = 0x80000000, 0xFFFFFFFF })
	}
	for _, op := range []isa.Opcode{isa.OpLh, isa.OpLhu, isa.OpLw, isa.OpFld, isa.OpSh, isa.OpSw, isa.OpFsd} {
		for off := uint32(1); off < uint32((isa.Inst{Op: op}).MemWidth()); off++ {
			add(op, 3, 4, 0, -4, func(c *opCase) { c.r[4] = program.DataBase + 4096 - off + 4 })
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 3e9, -3e9, math.MaxInt32 + 0.5, math.MinInt32 - 0.5} {
		add(isa.OpCvtfi, 3, 1, 0, 0, func(c *opCase) { c.f[1] = f })
	}
	negZero := math.Copysign(0, -1)
	for _, f := range [][2]float64{{math.NaN(), 1}, {1, math.NaN()}, {0, negZero}, {negZero, 0}, {math.Inf(-1), math.Inf(1)}} {
		for _, op := range []isa.Opcode{isa.OpFmin, isa.OpFmax, isa.OpFabs} {
			add(op, 3, 1, 2, 0, func(c *opCase) { c.f[1], c.f[2] = f[0], f[1] })
		}
	}
	return cs
}

// TestHandlersMatchStepInst checks every opcode's compiled form against the
// reference semantics: the edge cases, then 2,000 random states each.
func TestHandlersMatchStepInst(t *testing.T) {
	for _, c := range edgeCases() {
		checkOp(t, c)
	}
	r := rand.New(rand.NewSource(1))
	for op := isa.Opcode(1); int(op) < isa.NumOpcodes; op++ {
		if !op.Valid() {
			continue
		}
		for n := 0; n < 2000 && !t.Failed(); n++ {
			checkOp(t, randomCase(r, op))
		}
	}
}

// caseFromBytes decodes a fuzz input: opcode, rd, rs1, rs2, imm, pc, the
// values of R[rd], R[rs1], R[rs2], F[rd], F[rs1], F[rs2], then the memory
// bytes from 8 below the effective address. Missing bytes read as zero.
func caseFromBytes(data []byte) opCase {
	next := func(n int) []byte {
		b := make([]byte, 8)
		copy(b, data)
		data = data[min(n, len(data)):]
		return b
	}
	u32 := func() uint32 { return binary.LittleEndian.Uint32(next(4)) }
	f64 := func() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(next(8))) }
	c := opCase{}
	c.inst.Op = isa.Opcode(1 + int(next(1)[0])%(isa.NumOpcodes-1))
	c.inst.Rd, c.inst.Rs1, c.inst.Rs2 = next(1)[0]%isa.NumIntRegs, next(1)[0]%isa.NumIntRegs, next(1)[0]%isa.NumIntRegs
	c.inst.Imm = int32(u32())
	c.pc = u32()
	for k := range c.r {
		c.r[k] = 0x9E3779B9 * uint32(k)
		c.f[k] = float64(k) * 1.25
	}
	c.r[c.inst.Rd], c.r[c.inst.Rs1], c.r[c.inst.Rs2] = u32(), u32(), u32()
	c.f[c.inst.Rd], c.f[c.inst.Rs1], c.f[c.inst.Rs2] = f64(), f64(), f64()
	c.base = c.addr() - 8
	c.mem = append([]byte(nil), data[:min(len(data), 24)]...)
	return c
}

// caseBytes is caseFromBytes's inverse for the fields it decodes.
func caseBytes(c opCase) []byte {
	b := []byte{byte(c.inst.Op - 1), c.inst.Rd, c.inst.Rs1, c.inst.Rs2}
	b = binary.LittleEndian.AppendUint32(b, uint32(c.inst.Imm))
	b = binary.LittleEndian.AppendUint32(b, c.pc)
	for _, k := range []uint8{c.inst.Rd, c.inst.Rs1, c.inst.Rs2} {
		b = binary.LittleEndian.AppendUint32(b, c.r[k])
	}
	for _, k := range []uint8{c.inst.Rd, c.inst.Rs1, c.inst.Rs2} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.f[k]))
	}
	st, a := c.state(), c.addr()
	for k := uint32(0); k < 24; k++ {
		b = append(b, st.Mem.ReadU8(a-8+k))
	}
	return b
}

// hotCases returns, for each workload, its most executed instructions
// with the state they last ran against.
func hotCases(tb testing.TB, names []string, perWorkload int) []opCase {
	var cs []opCase
	for _, name := range names {
		w, ok := workloads.Get(name)
		if !ok {
			tb.Fatalf("unknown workload %s", name)
		}
		p := w.MustBuild(0.01)
		count := make(map[uint32]int)
		cpu := emulator.New(p)
		for n := 0; n < 200_000 && !cpu.Exited; n++ {
			count[cpu.PC]++
			if err := cpu.Step(); err != nil {
				tb.Fatal(err)
			}
		}
		pcs := make([]uint32, 0, len(count))
		for pc := range count { //fastsim:order-independent: sorted below
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(a, b int) bool {
			return count[pcs[a]] > count[pcs[b]] || count[pcs[a]] == count[pcs[b]] && pcs[a] < pcs[b]
		})
		hot := make(map[uint32]opCase)
		for _, pc := range pcs[:min(perWorkload, len(pcs))] {
			hot[pc] = opCase{}
		}
		cpu = emulator.New(p)
		for n := 0; n < 200_000 && !cpu.Exited; n++ {
			if _, ok := hot[cpu.PC]; ok {
				c := opCase{inst: p.MustInstAt(cpu.PC), pc: cpu.PC, r: cpu.R, f: cpu.F}
				c.base = c.addr() - 8
				c.mem = make([]byte, 24)
				for k := range c.mem {
					c.mem[k] = cpu.Mem.ReadU8(c.base + uint32(k))
				}
				hot[cpu.PC] = c
			}
			if err := cpu.Step(); err != nil {
				tb.Fatal(err)
			}
		}
		for _, pc := range pcs[:min(perWorkload, len(pcs))] {
			cs = append(cs, hot[pc])
		}
	}
	return cs
}

// TestHandlersCoverWorkloadMix checks that every opcode the workloads
// execute has a handler or terminator evaluator of its own, except sys
// and halt: only those may fall back to emulator.StepInst.
func TestHandlersCoverWorkloadMix(t *testing.T) {
	for _, w := range workloads.All() {
		p := w.MustBuild(0.05)
		cpu := emulator.New(p)
		seen := make(map[isa.Opcode]bool)
		for !cpu.Exited {
			seen[p.MustInstAt(cpu.PC).Op] = true
			if err := cpu.Step(); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		}
		for op := isa.Opcode(1); int(op) < isa.NumOpcodes; op++ {
			if seen[op] && op != isa.OpSys && op != isa.OpHalt && handlers[op] == nil && terms[op] == nil {
				t.Errorf("%s executes %v, which has no handler", w.Name, op)
			}
		}
	}
}

// FuzzDirectOps checks a compiled instruction against emulator.StepInst on
// a state the fuzz bytes choose (see caseFromBytes). It is seeded with the
// hot instructions of the four replay-warm programs, 130.li, 104.hydro2d
// and 146.wave5, and with the edge cases.
//
//	go test -run '^$' -fuzz '^FuzzDirectOps$' -fuzztime 30s ./internal/direct
func FuzzDirectOps(f *testing.F) {
	hot := hotCases(f, []string{"099.go", "107.mgrid", "126.gcc", "132.ijpeg", "130.li", "104.hydro2d", "146.wave5"}, 32)
	for _, c := range append(hot, edgeCases()...) {
		f.Add(caseBytes(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOp(t, caseFromBytes(data))
	})
}
