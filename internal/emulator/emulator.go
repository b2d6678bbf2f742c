// Package emulator implements functional (untimed) execution of SV8
// programs. It serves three roles in the reproduction:
//
//   - It is the semantic reference: StepInst defines the meaning of every
//     instruction. The SimpleScalar-surrogate reference simulator calls it
//     for every instruction. The speculative direct-execution engine does
//     not: it compiles each basic block into per-opcode handlers, and only
//     the opcodes no workload executes, non-exit system calls, halt and
//     exit run through StepInst. Those handlers are checked against StepInst on every
//     opcode (internal/direct's TestHandlersMatchStepInst) and under
//     fuzzing (FuzzDirectOps).
//   - Its wall-clock speed stands in for "native execution of the original,
//     uninstrumented executable" in the paper's Table 2/3 slowdown columns,
//     since nothing in this environment runs SV8 natively.
//   - Tests use it as the oracle for the rollback correctness of
//     speculative direct-execution.
package emulator

import (
	"errors"
	"fmt"
	"math"

	"fastsim/internal/isa"
	"fastsim/internal/program"
)

// MaxOutput caps the bytes retained from SysPutc so runaway programs cannot
// exhaust memory.
const MaxOutput = 64 * 1024

// State is the architectural state of an SV8 program: registers, memory and
// the externally visible side effects (output bytes, checksum, exit).
type State struct {
	R [isa.NumIntRegs]uint32
	F [isa.NumFPRegs]float64

	Mem *program.Memory

	Checksum uint32 // folded by SysCheck
	Output   []byte // bytes written by SysPutc, capped at MaxOutput
	Exited   bool
	ExitCode uint32
}

// NewState returns a State with p loaded and the stack pointer initialized.
func NewState(p *program.Program) *State {
	s := &State{Mem: program.NewMemory()}
	s.R[isa.RegSP] = s.Mem.Load(p)
	return s
}

// FoldCheck folds v into a running checksum. Exposed so tests can compute
// expected checksums.
func FoldCheck(sum, v uint32) uint32 {
	return (sum<<5 | sum>>27) ^ v
}

// StepInst executes one instruction at pc against s and returns the next
// program counter. It is the single definition of SV8 semantics.
func StepInst(s *State, i isa.Inst, pc uint32) uint32 {
	next := pc + isa.WordSize
	switch i.Op {
	case isa.OpAdd:
		s.set(i.Rd, s.R[i.Rs1]+s.R[i.Rs2])
	case isa.OpSub:
		s.set(i.Rd, s.R[i.Rs1]-s.R[i.Rs2])
	case isa.OpAnd:
		s.set(i.Rd, s.R[i.Rs1]&s.R[i.Rs2])
	case isa.OpOr:
		s.set(i.Rd, s.R[i.Rs1]|s.R[i.Rs2])
	case isa.OpXor:
		s.set(i.Rd, s.R[i.Rs1]^s.R[i.Rs2])
	case isa.OpSll:
		s.set(i.Rd, s.R[i.Rs1]<<(s.R[i.Rs2]&31))
	case isa.OpSrl:
		s.set(i.Rd, s.R[i.Rs1]>>(s.R[i.Rs2]&31))
	case isa.OpSra:
		s.set(i.Rd, uint32(int32(s.R[i.Rs1])>>(s.R[i.Rs2]&31)))
	case isa.OpSlt:
		s.set(i.Rd, b2u(int32(s.R[i.Rs1]) < int32(s.R[i.Rs2])))
	case isa.OpSltu:
		s.set(i.Rd, b2u(s.R[i.Rs1] < s.R[i.Rs2]))
	case isa.OpMul:
		s.set(i.Rd, s.R[i.Rs1]*s.R[i.Rs2])
	case isa.OpMulh:
		s.set(i.Rd, uint32(int64(int32(s.R[i.Rs1]))*int64(int32(s.R[i.Rs2]))>>32))
	case isa.OpDiv:
		s.set(i.Rd, divS(s.R[i.Rs1], s.R[i.Rs2]))
	case isa.OpRem:
		s.set(i.Rd, remS(s.R[i.Rs1], s.R[i.Rs2]))

	case isa.OpAddi:
		s.set(i.Rd, s.R[i.Rs1]+uint32(i.Imm))
	case isa.OpAndi:
		s.set(i.Rd, s.R[i.Rs1]&uint32(i.Imm))
	case isa.OpOri:
		s.set(i.Rd, s.R[i.Rs1]|uint32(i.Imm))
	case isa.OpXori:
		s.set(i.Rd, s.R[i.Rs1]^uint32(i.Imm))
	case isa.OpSlli:
		s.set(i.Rd, s.R[i.Rs1]<<(uint32(i.Imm)&31))
	case isa.OpSrli:
		s.set(i.Rd, s.R[i.Rs1]>>(uint32(i.Imm)&31))
	case isa.OpSrai:
		s.set(i.Rd, uint32(int32(s.R[i.Rs1])>>(uint32(i.Imm)&31)))
	case isa.OpSlti:
		s.set(i.Rd, b2u(int32(s.R[i.Rs1]) < i.Imm))
	case isa.OpLui:
		s.set(i.Rd, uint32(i.Imm))

	case isa.OpLw:
		s.set(i.Rd, s.Mem.ReadU32(s.R[i.Rs1]+uint32(i.Imm)))
	case isa.OpLh:
		s.set(i.Rd, uint32(int32(int16(s.Mem.ReadU16(s.R[i.Rs1]+uint32(i.Imm))))))
	case isa.OpLhu:
		s.set(i.Rd, uint32(s.Mem.ReadU16(s.R[i.Rs1]+uint32(i.Imm))))
	case isa.OpLb:
		s.set(i.Rd, uint32(int32(int8(s.Mem.ReadU8(s.R[i.Rs1]+uint32(i.Imm))))))
	case isa.OpLbu:
		s.set(i.Rd, uint32(s.Mem.ReadU8(s.R[i.Rs1]+uint32(i.Imm))))
	case isa.OpSw:
		s.Mem.WriteU32(s.R[i.Rs1]+uint32(i.Imm), s.R[i.Rd])
	case isa.OpSh:
		s.Mem.WriteU16(s.R[i.Rs1]+uint32(i.Imm), uint16(s.R[i.Rd]))
	case isa.OpSb:
		s.Mem.WriteU8(s.R[i.Rs1]+uint32(i.Imm), byte(s.R[i.Rd]))
	case isa.OpFld:
		s.F[i.Rd] = math.Float64frombits(s.Mem.ReadU64(s.R[i.Rs1] + uint32(i.Imm)))
	case isa.OpFsd:
		s.Mem.WriteU64(s.R[i.Rs1]+uint32(i.Imm), math.Float64bits(s.F[i.Rd]))

	case isa.OpBeq:
		if s.R[i.Rs1] == s.R[i.Rs2] {
			next = pc + uint32(i.Imm)
		}
	case isa.OpBne:
		if s.R[i.Rs1] != s.R[i.Rs2] {
			next = pc + uint32(i.Imm)
		}
	case isa.OpBlt:
		if int32(s.R[i.Rs1]) < int32(s.R[i.Rs2]) {
			next = pc + uint32(i.Imm)
		}
	case isa.OpBge:
		if int32(s.R[i.Rs1]) >= int32(s.R[i.Rs2]) {
			next = pc + uint32(i.Imm)
		}
	case isa.OpBltu:
		if s.R[i.Rs1] < s.R[i.Rs2] {
			next = pc + uint32(i.Imm)
		}
	case isa.OpBgeu:
		if s.R[i.Rs1] >= s.R[i.Rs2] {
			next = pc + uint32(i.Imm)
		}
	case isa.OpJ:
		next = pc + uint32(i.Imm)
	case isa.OpJal:
		s.set(i.Rd, pc+isa.WordSize)
		next = pc + uint32(i.Imm)
	case isa.OpJalr:
		t := (s.R[i.Rs1] + uint32(i.Imm)) &^ 3
		s.set(i.Rd, pc+isa.WordSize)
		next = t

	case isa.OpFadd:
		s.F[i.Rd] = s.F[i.Rs1] + s.F[i.Rs2]
	case isa.OpFsub:
		s.F[i.Rd] = s.F[i.Rs1] - s.F[i.Rs2]
	case isa.OpFmul:
		s.F[i.Rd] = s.F[i.Rs1] * s.F[i.Rs2]
	case isa.OpFdiv:
		s.F[i.Rd] = s.F[i.Rs1] / s.F[i.Rs2]
	case isa.OpFsqrt:
		s.F[i.Rd] = math.Sqrt(s.F[i.Rs1])
	case isa.OpFmin:
		s.F[i.Rd] = math.Min(s.F[i.Rs1], s.F[i.Rs2])
	case isa.OpFmax:
		s.F[i.Rd] = math.Max(s.F[i.Rs1], s.F[i.Rs2])
	case isa.OpFneg:
		s.F[i.Rd] = -s.F[i.Rs1]
	case isa.OpFabs:
		s.F[i.Rd] = math.Abs(s.F[i.Rs1])
	case isa.OpFmov:
		s.F[i.Rd] = s.F[i.Rs1]
	case isa.OpCvtif:
		s.F[i.Rd] = float64(int32(s.R[i.Rs1]))
	case isa.OpCvtfi:
		s.set(i.Rd, truncToI32(s.F[i.Rs1]))
	case isa.OpFeq:
		//fastsim:float-exact: OpFeq is the ISA's IEEE equality instruction; exact comparison of register bits is the architecture's semantics
		s.set(i.Rd, b2u(s.F[i.Rs1] == s.F[i.Rs2]))
	case isa.OpFlt:
		s.set(i.Rd, b2u(s.F[i.Rs1] < s.F[i.Rs2]))
	case isa.OpFle:
		s.set(i.Rd, b2u(s.F[i.Rs1] <= s.F[i.Rs2]))

	case isa.OpSys:
		switch i.Imm {
		case isa.SysExit:
			s.Exited = true
			s.ExitCode = s.R[isa.RegA0]
		case isa.SysPutc:
			if len(s.Output) < MaxOutput {
				s.Output = append(s.Output, byte(s.R[isa.RegA0]))
			}
		case isa.SysCheck:
			s.Checksum = FoldCheck(s.Checksum, s.R[isa.RegA0])
		}
	case isa.OpHalt:
		s.Exited = true
		s.ExitCode = s.R[isa.RegA0]
	}
	return next
}

func (s *State) set(rd uint8, v uint32) {
	if rd != 0 {
		s.R[rd] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func divS(a, b uint32) uint32 {
	if b == 0 {
		return 0xFFFFFFFF
	}
	if int32(a) == math.MinInt32 && int32(b) == -1 {
		return a // overflow: result is the dividend, as on RISC-V
	}
	return uint32(int32(a) / int32(b))
}

func remS(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	if int32(a) == math.MinInt32 && int32(b) == -1 {
		return 0
	}
	return uint32(int32(a) % int32(b))
}

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

// ErrBudget is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrBudget = errors.New("emulator: instruction budget exhausted")

// CPU is a plain fetch-decode-execute interpreter over State.
type CPU struct {
	*State
	Prog      *program.Program
	PC        uint32
	InstCount uint64
}

// New returns a CPU ready to run p from its entry point.
func New(p *program.Program) *CPU {
	return &CPU{State: NewState(p), Prog: p, PC: p.Entry}
}

// Step executes a single instruction.
func (c *CPU) Step() error {
	inst, ok := c.Prog.InstAt(c.PC)
	if !ok {
		return fmt.Errorf("emulator: invalid pc %#x after %d instructions", c.PC, c.InstCount)
	}
	c.PC = StepInst(c.State, inst, c.PC)
	c.InstCount++
	return nil
}

// Run executes until the program exits or maxInsts instructions have
// retired (0 means no budget).
func (c *CPU) Run(maxInsts uint64) error {
	for !c.Exited {
		if maxInsts > 0 && c.InstCount >= maxInsts {
			return ErrBudget
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}
