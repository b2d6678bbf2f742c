package direct

import (
	"math"

	"fastsim/internal/emulator"
	"fastsim/internal/isa"
)

// A block is one basic block, compiled at its first visit: the straight-
// line instructions as ops, then the terminator that ends it.
type block struct {
	body []op
	// next evaluates the terminator and returns the pc it transfers to
	// (nil for termCap).
	next termFunc
	term isa.Inst
	pc   uint32 // the terminator's pc; for termCap, the continuation
	kind termKind
}

type termKind uint8

const (
	termCap    termKind = iota // no terminator: body hit MaxBlockInsts or the end of text
	termBranch                 // conditional branch
	termJump                   // j / jal: single target, executed inline
	termIJump                  // jalr
	termHalt                   // halt or sys exit
)

// An op is one compiled straight-line instruction: a handler from the
// per-opcode table and the pre-decoded instruction it executes. Handlers
// capture nothing, so an op is 16 bytes and compiling a block allocates
// only the block and its op slice.
type op struct {
	fn   handler
	inst isa.Inst
}

// A handler executes one straight-line instruction against st. Load and
// store handlers also record the lQ/sQ entry (paper Figure 3).
type handler func(e *Engine, st *emulator.State, i *isa.Inst)

// A termFunc evaluates a block terminator at pc and returns the next pc.
// emulator.StepInst is one: halt and sys exit are interpreted.
type termFunc func(st *emulator.State, i isa.Inst, pc uint32) uint32

// compile builds the block starting at pc, which must be a text address.
func (e *Engine) compile(pc uint32) *block {
	b := &block{pc: pc}
	n := 0
	for ; n < MaxBlockInsts; n++ {
		i, ok := e.Prog.InstAt(b.pc)
		if !ok {
			break // ran off the end of text; the next visit stalls there
		}
		if kind := termKindOf(i); kind != termCap {
			b.kind, b.term, b.next = kind, i, compileTerm(i)
			break
		}
		b.pc += isa.WordSize
	}
	b.body = make([]op, n)
	for k := range b.body {
		b.body[k] = compileOp(e.Prog.MustInstAt(pc + uint32(k)*isa.WordSize))
	}
	return b
}

// termKindOf classifies i as a block terminator, or termCap if it is a
// straight-line instruction.
func termKindOf(i isa.Inst) termKind {
	switch i.Class() {
	case isa.ClassBranch:
		return termBranch
	case isa.ClassJump:
		return termJump
	case isa.ClassJumpInd:
		return termIJump
	case isa.ClassHalt:
		return termHalt
	case isa.ClassSys:
		if i.Imm == isa.SysExit {
			return termHalt
		}
	}
	return termCap
}

// compileOp returns the op for straight-line instruction i. A write to r0
// is dropped here, once: an integer-result instruction with rd = r0
// becomes a no-op, or for a load, a handler that only records the lQ
// entry.
func compileOp(i isa.Inst) op {
	fn := handlers[i.Op]
	if fn == nil {
		fn = interpret
	}
	if i.Rd == 0 && (isa.Inst{Op: i.Op, Rd: 1}).Def() == isa.IntReg(1) {
		fn = nop
		if i.Class() == isa.ClassLoad {
			fn = recordLoad
		}
	}
	return op{fn: fn, inst: i}
}

// compileTerm returns the evaluator for terminator i. A link to r0 is
// dropped here: jal r0 is j, and jalr r0 does not link.
func compileTerm(i isa.Inst) termFunc {
	switch {
	case i.Op == isa.OpJal && i.Rd == 0:
		return terms[isa.OpJ]
	case i.Op == isa.OpJalr && i.Rd == 0:
		return jalrNoLink
	case terms[i.Op] != nil:
		return terms[i.Op]
	}
	return emulator.StepInst
}

// interpret runs an instruction without a handler of its own (the rare
// opcodes and non-exit sys calls) through the reference semantics. Its
// next pc is ignored, so the pc passed does not matter.
func interpret(_ *Engine, st *emulator.State, i *isa.Inst) { emulator.StepInst(st, *i, 0) }

func nop(*Engine, *emulator.State, *isa.Inst) {}

// recordLoad is a load into r0: only its lQ entry remains.
func recordLoad(e *Engine, st *emulator.State, i *isa.Inst) { e.load(st, i, uint8(i.MemWidth())) }

// load records a load of width w and returns its effective address.
func (e *Engine) load(st *emulator.State, i *isa.Inst, w uint8) uint32 {
	a := st.R[i.Rs1] + uint32(i.Imm)
	e.lq = append(e.lq, LoadRec{Addr: a, Width: w})
	return a
}

// store records a store of width w, whose pre-store value is old, at
// effective address a.
func (e *Engine) store(a uint32, old uint64, w uint8) {
	e.sq = append(e.sq, StoreRec{Addr: a, Old: old, Width: w})
}

// handlers holds the compiled form of every opcode the 18 workloads
// execute (their measured dynamic mix at scale 1) except non-exit sys
// calls, and of every load and store, since those record; the opcodes no
// workload executes run through interpret. Each must match
// emulator.StepInst exactly (TestHandlersMatchStepInst, FuzzDirectOps);
// the r0 case is excluded by compileOp.
var handlers = [isa.NumOpcodes]handler{
	isa.OpAdd: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] + st.R[i.Rs2] },
	isa.OpSub: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] - st.R[i.Rs2] },
	isa.OpAnd: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] & st.R[i.Rs2] },
	isa.OpOr:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] | st.R[i.Rs2] },
	isa.OpXor: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] ^ st.R[i.Rs2] },
	isa.OpMul: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] * st.R[i.Rs2] },
	isa.OpDiv: func(_ *Engine, st *emulator.State, i *isa.Inst) {
		a, b := st.R[i.Rs1], st.R[i.Rs2]
		switch {
		case b == 0:
			st.R[i.Rd] = 0xFFFFFFFF
		case int32(a) == math.MinInt32 && int32(b) == -1:
			st.R[i.Rd] = a // overflow: the dividend
		default:
			st.R[i.Rd] = uint32(int32(a) / int32(b))
		}
	},

	isa.OpAddi: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] + uint32(i.Imm) },
	isa.OpAndi: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] & uint32(i.Imm) },
	isa.OpOri:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] | uint32(i.Imm) },
	isa.OpSlli: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] << (uint32(i.Imm) & 31) },
	isa.OpSrli: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.R[i.Rs1] >> (uint32(i.Imm) & 31) },
	isa.OpLui:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = uint32(i.Imm) },

	isa.OpLw: func(e *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = st.Mem.ReadU32(e.load(st, i, 4)) },
	isa.OpLh: func(e *Engine, st *emulator.State, i *isa.Inst) {
		st.R[i.Rd] = uint32(int32(int16(st.Mem.ReadU16(e.load(st, i, 2)))))
	},
	isa.OpLhu: func(e *Engine, st *emulator.State, i *isa.Inst) {
		st.R[i.Rd] = uint32(st.Mem.ReadU16(e.load(st, i, 2)))
	},
	isa.OpLb: func(e *Engine, st *emulator.State, i *isa.Inst) {
		st.R[i.Rd] = uint32(int32(int8(st.Mem.ReadU8(e.load(st, i, 1)))))
	},
	isa.OpLbu: func(e *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = uint32(st.Mem.ReadU8(e.load(st, i, 1))) },
	isa.OpFld: func(e *Engine, st *emulator.State, i *isa.Inst) {
		st.F[i.Rd] = math.Float64frombits(st.Mem.ReadU64(e.load(st, i, 8)))
	},
	isa.OpSw: func(e *Engine, st *emulator.State, i *isa.Inst) {
		a := st.R[i.Rs1] + uint32(i.Imm)
		e.store(a, uint64(st.Mem.ReadU32(a)), 4)
		st.Mem.WriteU32(a, st.R[i.Rd])
	},
	isa.OpSh: func(e *Engine, st *emulator.State, i *isa.Inst) {
		a := st.R[i.Rs1] + uint32(i.Imm)
		e.store(a, uint64(st.Mem.ReadU16(a)), 2)
		st.Mem.WriteU16(a, uint16(st.R[i.Rd]))
	},
	isa.OpSb: func(e *Engine, st *emulator.State, i *isa.Inst) {
		a := st.R[i.Rs1] + uint32(i.Imm)
		e.store(a, uint64(st.Mem.ReadU8(a)), 1)
		st.Mem.WriteU8(a, byte(st.R[i.Rd]))
	},
	isa.OpFsd: func(e *Engine, st *emulator.State, i *isa.Inst) {
		a := st.R[i.Rs1] + uint32(i.Imm)
		e.store(a, st.Mem.ReadU64(a), 8)
		st.Mem.WriteU64(a, math.Float64bits(st.F[i.Rd]))
	},

	isa.OpFadd:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.F[i.Rd] = st.F[i.Rs1] + st.F[i.Rs2] },
	isa.OpFsub:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.F[i.Rd] = st.F[i.Rs1] - st.F[i.Rs2] },
	isa.OpFmul:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.F[i.Rd] = st.F[i.Rs1] * st.F[i.Rs2] },
	isa.OpFdiv:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.F[i.Rd] = st.F[i.Rs1] / st.F[i.Rs2] },
	isa.OpFmin:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.F[i.Rd] = math.Min(st.F[i.Rs1], st.F[i.Rs2]) },
	isa.OpFmax:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.F[i.Rd] = math.Max(st.F[i.Rs1], st.F[i.Rs2]) },
	isa.OpFabs:  func(_ *Engine, st *emulator.State, i *isa.Inst) { st.F[i.Rd] = math.Abs(st.F[i.Rs1]) },
	isa.OpCvtif: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.F[i.Rd] = float64(int32(st.R[i.Rs1])) },
	isa.OpCvtfi: func(_ *Engine, st *emulator.State, i *isa.Inst) { st.R[i.Rd] = truncToI32(st.F[i.Rs1]) },
}

// truncToI32 is cvtfi's conversion: truncate toward zero, saturating at
// the int32 limits, with NaN converting to 0.
func truncToI32(f float64) uint32 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return 0x80000000
	}
	return uint32(int32(f))
}

// terms holds the evaluators of the branch and jump terminators. Each must
// match emulator.StepInst exactly; compileTerm handles the r0 links.
var terms = [isa.NumOpcodes]termFunc{
	isa.OpBeq: func(st *emulator.State, i isa.Inst, pc uint32) uint32 {
		return branch(st.R[i.Rs1] == st.R[i.Rs2], i, pc)
	},
	isa.OpBne: func(st *emulator.State, i isa.Inst, pc uint32) uint32 {
		return branch(st.R[i.Rs1] != st.R[i.Rs2], i, pc)
	},
	isa.OpBlt: func(st *emulator.State, i isa.Inst, pc uint32) uint32 {
		return branch(int32(st.R[i.Rs1]) < int32(st.R[i.Rs2]), i, pc)
	},
	isa.OpBge: func(st *emulator.State, i isa.Inst, pc uint32) uint32 {
		return branch(int32(st.R[i.Rs1]) >= int32(st.R[i.Rs2]), i, pc)
	},
	isa.OpBltu: func(st *emulator.State, i isa.Inst, pc uint32) uint32 {
		return branch(st.R[i.Rs1] < st.R[i.Rs2], i, pc)
	},
	isa.OpBgeu: func(st *emulator.State, i isa.Inst, pc uint32) uint32 {
		return branch(st.R[i.Rs1] >= st.R[i.Rs2], i, pc)
	},
	isa.OpJ: func(_ *emulator.State, i isa.Inst, pc uint32) uint32 { return pc + uint32(i.Imm) },
	isa.OpJal: func(st *emulator.State, i isa.Inst, pc uint32) uint32 {
		st.R[i.Rd] = pc + isa.WordSize
		return pc + uint32(i.Imm)
	},
	isa.OpJalr: func(st *emulator.State, i isa.Inst, pc uint32) uint32 {
		t := (st.R[i.Rs1] + uint32(i.Imm)) &^ 3 // read rs1 before linking: rd may be rs1
		st.R[i.Rd] = pc + isa.WordSize
		return t
	},
}

func jalrNoLink(st *emulator.State, i isa.Inst, _ uint32) uint32 {
	return (st.R[i.Rs1] + uint32(i.Imm)) &^ 3
}

// branch returns a conditional branch's next pc.
func branch(taken bool, i isa.Inst, pc uint32) uint32 {
	if taken {
		return pc + uint32(i.Imm)
	}
	return pc + isa.WordSize
}
