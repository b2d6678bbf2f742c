// Package inorder is a simple in-order pipeline timing model over the same
// ISA, functional semantics and cache hierarchy as the out-of-order
// simulators. It exists to reproduce the observation the paper cites from
// Pai, Ranganathan and Adve (§2): out-of-order processors cannot be
// approximated accurately by in-order pipeline models, because the benefit
// of memory-instruction reordering varies wildly across programs — so the
// in-order/out-of-order cycle ratio is far from a constant scaling factor.
// The tablegen "inorder" ablation measures exactly that spread.
//
// The model: dual-issue, in-order, with a register scoreboard, blocking
// issue (a not-ready instruction stalls everything behind it), the same
// functional-unit latencies as the OOO model, a synchronous (blocking-on-
// use) data cache, and the same 2-bit branch predictor charging a fixed
// redirect penalty per misprediction.
package inorder

import (
	"errors"
	"time"

	"fastsim/internal/bpred"
	"fastsim/internal/cachesim"
	"fastsim/internal/emulator"
	"fastsim/internal/isa"
	"fastsim/internal/program"
)

// Params sizes the in-order machine.
type Params struct {
	IssueWidth      int // instructions issued per cycle (in order)
	MispredictFlush int // cycles lost per mispredicted branch
}

// DefaultParams returns a dual-issue machine with a 4-cycle redirect.
func DefaultParams() Params {
	return Params{IssueWidth: 2, MispredictFlush: 4}
}

// Result reports an in-order simulation.
type Result struct {
	Cycles      uint64
	Insts       uint64
	Checksum    uint32
	ExitCode    uint32
	Mispredicts uint64
	Cache       cachesim.Stats
	WallTime    time.Duration
}

// ErrCycleLimit reports an exceeded cycle budget.
var ErrCycleLimit = errors.New("inorder: cycle limit exceeded")

// Run simulates prog on the in-order timing model.
//
//fastsim:allow-wallclock: Result.WallTime is a host-speed measurement field (like tablegen's EmuTime columns); every simulated statistic is cycle-counted and deterministic
func Run(prog *program.Program, p Params, cacheCfg cachesim.Config, maxCycles uint64) (*Result, error) {
	if p.IssueWidth <= 0 {
		p.IssueWidth = 2
	}
	if maxCycles == 0 {
		maxCycles = 40_000_000_000
	}
	start := time.Now()

	st := emulator.NewState(prog)
	pred := bpred.New(0)
	cache := cachesim.New(cacheCfg)

	// readyAt[r] is the cycle at which architectural register r's newest
	// value becomes available.
	var readyAt [isa.NumIntRegs + isa.NumFPRegs]uint64

	var (
		cycle       uint64 // current issue cycle
		slot        int    // issue slot used in the current cycle
		insts       uint64
		mispredicts uint64
		pc          = prog.Entry
		srcs        []isa.Reg
	)

	advance := func(n uint64) {
		cycle += n
		slot = 0
	}

	for !st.Exited {
		if cycle > maxCycles {
			return nil, ErrCycleLimit
		}
		inst, ok := prog.InstAt(pc)
		if !ok {
			return nil, errors.New("inorder: invalid pc")
		}

		// In-order issue: wait for all sources.
		srcs = inst.Uses(srcs[:0])
		for _, s := range srcs {
			if readyAt[s] > cycle {
				advance(readyAt[s] - cycle)
			}
		}
		if slot >= p.IssueWidth {
			advance(1)
		}
		slot++

		issue := cycle
		lat := uint64(inst.Op.Latency())
		switch inst.Class() {
		case isa.ClassLoad:
			// Blocking-on-use cache: the result is ready after the full
			// (possibly multi-interval) access completes.
			addr := st.R[inst.Rs1] + uint32(inst.Imm)
			lat += uint64(cache.Access(addr, issue+1))
		case isa.ClassStore:
			addr := st.R[inst.Rs1] + uint32(inst.Imm)
			cache.Store(addr, issue+1)
		}

		next := emulator.StepInst(st, inst, pc)
		insts++

		if d := inst.Def(); d != isa.RegNone {
			readyAt[d] = issue + lat
			if lat == 0 {
				readyAt[d] = issue + 1
			}
		}

		switch inst.Class() {
		case isa.ClassBranch:
			taken := next != pc+isa.WordSize
			if pred.Update(pc, taken) != taken {
				mispredicts++
				advance(uint64(p.MispredictFlush))
			} else {
				advance(1) // branches end the issue group
			}
		case isa.ClassJump, isa.ClassJumpInd:
			advance(1) // redirect bubble
		}
		pc = next
	}
	return &Result{
		Cycles:      cycle + 1,
		Insts:       insts,
		Checksum:    st.Checksum,
		ExitCode:    st.ExitCode,
		Mispredicts: mispredicts,
		Cache:       cache.Stats(),
		WallTime:    time.Since(start),
	}, nil
}
