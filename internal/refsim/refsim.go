// Package refsim is the repository's SimpleScalar surrogate: an
// independently implemented, conventional-technology out-of-order processor
// simulator in the style of sim-outorder. It plays the baseline role of the
// paper's Table 3 — a contemporary simulator of a comparable processor at
// an equivalent level of detail, sharing no simulation machinery with the
// FastSim engine.
//
// Its structure is deliberately traditional:
//
//   - instructions are fetched from simulated memory and decoded on every
//     fetch (no pre-decoded blocks);
//   - functional execution is interleaved with timing, per instruction, at
//     dispatch into an RUU-style window (no decoupled direct execution);
//   - mispredicted-path instructions are fetched and occupy pipeline
//     resources but are not executed functionally ("bogus" entries), and
//     are squashed when the branch resolves;
//   - there is no memoization of any kind.
//
// It reuses the cachesim package (with its own instance) so that the memory
// hierarchy detail is equivalent across baselines.
package refsim

import (
	"errors"
	"fmt"
	"time"

	"fastsim/internal/bpred"
	"fastsim/internal/cachesim"
	"fastsim/internal/emulator"
	"fastsim/internal/isa"
	"fastsim/internal/program"
)

// Params sizes the pipeline; defaults mirror the FastSim model (Table 1).
type Params struct {
	FetchWidth    int
	DispatchWidth int
	CommitWidth   int
	Window        int // RUU entries
	IntALUs       int
	FPUs          int
	AddrAdders    int
	MaxSpec       int // conditional branches speculated past
}

// DefaultParams matches the paper's processor model.
func DefaultParams() Params {
	return Params{
		FetchWidth: 4, DispatchWidth: 4, CommitWidth: 4,
		Window: 32, IntALUs: 2, FPUs: 2, AddrAdders: 1, MaxSpec: 4,
	}
}

// Result reports a reference-simulator run.
type Result struct {
	Cycles   uint64
	Insts    uint64 // committed instructions
	Checksum uint32
	ExitCode uint32
	Output   []byte

	Mispredicts uint64
	Cache       cachesim.Stats
	WallTime    time.Duration
}

// KInstsPerSec returns simulation speed in Kinsts/second.
func (r *Result) KInstsPerSec() float64 {
	s := r.WallTime.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Insts) / s / 1000
}

type entry struct {
	inst  isa.Inst
	pc    uint32
	bogus bool // fetched on a mispredicted path; timing only

	dispatched uint64 // cycle dispatched
	issued     bool
	completeAt uint64
	completed  bool

	dep1, dep2 int // RUU indices of producers (-1 none / outside window)

	isLoad, isStore bool
	addr            uint32

	isBranch   bool
	mispredict bool
	recoverPC  uint32

	isHalt bool
}

type fetched struct {
	inst  isa.Inst
	pc    uint32
	bogus bool
}

// sim is the simulator state.
type sim struct {
	p     Params
	prog  *program.Program
	st    *emulator.State
	mem   *program.Memory
	pred  bpred.Predictor
	cache *cachesim.Cache

	cycle   uint64
	fetchPC uint32
	// fetch gating
	fetchBogus   bool // fetching past an unresolved mispredicted branch
	fetchStalled bool // waiting for an unresolved indirect jump / halt seen

	ifq []fetched
	ruu []entry

	lastWriter map[isa.Reg]int // arch reg -> RUU index of newest producer

	committed   uint64
	mispredicts uint64
	done        bool
}

// ErrCycleLimit reports a run exceeding its cycle budget.
var ErrCycleLimit = errors.New("refsim: cycle limit exceeded")

// Run simulates prog to completion on the reference simulator.
//
//fastsim:allow-wallclock: Result.WallTime is a host-speed measurement field (like tablegen's EmuTime columns); every simulated statistic is cycle-counted and deterministic
func Run(prog *program.Program, p Params, cacheCfg cachesim.Config, maxCycles uint64) (res *Result, err error) {
	if maxCycles == 0 {
		maxCycles = 40_000_000_000
	}
	st := emulator.NewState(prog)
	s := &sim{
		p:          p,
		prog:       prog,
		st:         st,
		mem:        st.Mem,
		pred:       bpred.New(0),
		cache:      cachesim.New(cacheCfg),
		fetchPC:    prog.Entry,
		lastWriter: make(map[isa.Reg]int),
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*runawayError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	start := time.Now()
	for !s.done {
		if s.cycle > maxCycles {
			return nil, ErrCycleLimit
		}
		s.commit()
		if s.done {
			s.cycle++
			break
		}
		s.issue()
		s.dispatch()
		s.fetch()
		s.cycle++
	}
	return &Result{
		Cycles:      s.cycle,
		Insts:       s.committed,
		Checksum:    st.Checksum,
		ExitCode:    st.ExitCode,
		Output:      st.Output,
		Mispredicts: s.mispredicts,
		Cache:       s.cache.Stats(),
		WallTime:    time.Since(start),
	}, nil
}

// commit retires completed instructions in order.
func (s *sim) commit() {
	for n := 0; n < s.p.CommitWidth && len(s.ruu) > 0; n++ {
		e := &s.ruu[0]
		if !e.completed {
			return
		}
		if e.bogus {
			// Bogus entries are squashed at branch resolution; one at the
			// head means the recovery logic failed.
			panic("refsim: bogus instruction reached commit")
		}
		if e.isStore {
			s.cache.Store(e.addr, s.cycle)
		}
		if e.isHalt {
			s.committed++
			s.done = true
			return
		}
		s.committed++
		s.popHead()
	}
}

func (s *sim) popHead() {
	s.ruu = append(s.ruu[:0], s.ruu[1:]...)
	// RUU indices shift down by one.
	for r, i := range s.lastWriter {
		if i == 0 {
			delete(s.lastWriter, r)
		} else {
			s.lastWriter[r] = i - 1
		}
	}
	for k := range s.ruu {
		if s.ruu[k].dep1 >= 0 {
			s.ruu[k].dep1--
		}
		if s.ruu[k].dep2 >= 0 {
			s.ruu[k].dep2--
		}
	}
}

func (s *sim) depReady(i int) bool {
	return i < 0 || s.ruu[i].completed
}

// issue starts execution of ready instructions and handles completions.
func (s *sim) issue() {
	// Completions first.
	for k := range s.ruu {
		e := &s.ruu[k]
		if e.issued && !e.completed && s.cycle >= e.completeAt {
			e.completed = true
			if e.isBranch && e.mispredict {
				s.recover(k)
				break
			}
		}
	}
	intSlots, fpSlots, addrSlots := s.p.IntALUs, s.p.FPUs, s.p.AddrAdders
	for k := range s.ruu {
		e := &s.ruu[k]
		if e.issued || e.dispatched == 0 || e.dispatched >= s.cycle {
			continue
		}
		if !s.depReady(e.dep1) || !s.depReady(e.dep2) {
			continue
		}
		if e.isLoad && s.loadBlocked(k) {
			continue
		}
		lat := e.inst.Op.Latency()
		switch e.inst.Class().Queue() {
		case isa.QueueInt:
			if intSlots == 0 {
				continue
			}
			intSlots--
		case isa.QueueFP:
			if fpSlots == 0 {
				continue
			}
			fpSlots--
		case isa.QueueAddr:
			if addrSlots == 0 {
				continue
			}
			addrSlots--
			if e.isLoad && e.bogus {
				lat += 2 // wrong-path loads do not access simulated memory
			} else if e.isLoad {
				lat += s.cache.Access(e.addr, s.cycle)
			}
		default:
			// direct jumps: complete immediately
		}
		e.issued = true
		e.completeAt = s.cycle + uint64(lat)
		if lat == 0 {
			e.completeAt = s.cycle + 1
		}
	}
}

// loadBlocked reports whether an older, incomplete store to the same word
// blocks the load (a conventional conservative disambiguation rule).
func (s *sim) loadBlocked(k int) bool {
	for j := 0; j < k; j++ {
		e := &s.ruu[j]
		if e.isStore && !e.completed && (e.bogus || e.addr&^3 == s.ruu[k].addr&^3) {
			return true
		}
	}
	return false
}

// recover squashes everything younger than the mispredicted branch at RUU
// index k and redirects fetch.
func (s *sim) recover(k int) {
	for r, i := range s.lastWriter {
		if i > k {
			delete(s.lastWriter, r)
		}
	}
	s.ruu = s.ruu[:k+1]
	s.ifq = s.ifq[:0]
	s.fetchPC = s.ruu[k].recoverPC
	s.fetchBogus = false
	s.fetchStalled = false
	s.mispredicts++
}

// dispatch moves fetched instructions into the RUU, executing them
// functionally (the conventional interleaved style).
func (s *sim) dispatch() {
	for n := 0; n < s.p.DispatchWidth && len(s.ifq) > 0; n++ {
		if len(s.ruu) >= s.p.Window {
			return
		}
		f := s.ifq[0]
		e := entry{
			inst: f.inst, pc: f.pc, bogus: f.bogus,
			dispatched: s.cycle,
			dep1:       -1, dep2: -1,
		}
		// Record dependences on in-window producers.
		var srcs []isa.Reg
		srcs = f.inst.Uses(srcs)
		if len(srcs) > 0 {
			if i, ok := s.lastWriter[srcs[0]]; ok {
				e.dep1 = i
			}
		}
		if len(srcs) > 1 {
			if i, ok := s.lastWriter[srcs[1]]; ok {
				e.dep2 = i
			}
		}
		cls := f.inst.Class()
		e.isLoad = cls == isa.ClassLoad
		e.isStore = cls == isa.ClassStore
		e.isHalt = f.inst.Op == isa.OpHalt ||
			(f.inst.Op == isa.OpSys && f.inst.Imm == isa.SysExit)

		if !f.bogus {
			// Functional execution, interleaved with timing.
			if e.isLoad || e.isStore {
				e.addr = s.st.R[f.inst.Rs1] + uint32(f.inst.Imm)
			}
			next := emulator.StepInst(s.st, f.inst, f.pc)
			switch cls {
			case isa.ClassBranch:
				e.isBranch = true
				taken := next != f.pc+isa.WordSize
				predicted := s.pred.Update(f.pc, taken)
				if predicted != taken {
					e.mispredict = true
					e.recoverPC = next
					s.fetchBogus = true
					// Instructions already fetched past this branch are
					// on the wrong path too.
					for i := range s.ifq {
						s.ifq[i].bogus = true
					}
				}
			case isa.ClassJumpInd:
				// Fetch stalled at the jalr; resume at the real target.
				s.fetchPC = next
				s.fetchStalled = false
			}
		}
		if d := f.inst.Def(); d != isa.RegNone {
			s.lastWriter[d] = len(s.ruu)
		}
		s.ruu = append(s.ruu, e)
		s.ifq = s.ifq[1:]
	}
}

// fetch brings instructions into the fetch queue, decoding from simulated
// memory each time and following the branch predictor.
func (s *sim) fetch() {
	if s.fetchStalled {
		return
	}
	spec := 0
	for k := range s.ruu {
		if s.ruu[k].isBranch && !s.ruu[k].completed {
			spec++
		}
	}
	for n := 0; n < s.p.FetchWidth; n++ {
		if len(s.ifq) >= s.p.FetchWidth*2 {
			return
		}
		if s.fetchPC < program.TextBase || s.fetchPC >= s.prog.TextEnd() {
			// Wrong-path fetch ran off the text segment; wait for recovery.
			if !s.fetchBogus {
				panic(&runawayError{s.fetchPC})
			}
			s.fetchStalled = true
			return
		}
		word := s.mem.ReadU32(s.fetchPC)
		inst, err := isa.Decode(word)
		if err != nil {
			if !s.fetchBogus {
				panic(&runawayError{s.fetchPC})
			}
			s.fetchStalled = true
			return
		}
		f := fetched{inst: inst, pc: s.fetchPC, bogus: s.fetchBogus}
		cls := inst.Class()
		switch cls {
		case isa.ClassBranch:
			if spec >= s.p.MaxSpec {
				return
			}
			spec++
			if s.pred.Predict(s.fetchPC) {
				s.fetchPC = inst.BranchTarget(s.fetchPC)
			} else {
				s.fetchPC += isa.WordSize
			}
			s.ifq = append(s.ifq, f)
			return
		case isa.ClassJump:
			s.fetchPC = inst.BranchTarget(s.fetchPC)
			s.ifq = append(s.ifq, f)
			return
		case isa.ClassJumpInd:
			s.ifq = append(s.ifq, f)
			s.fetchStalled = true
			return
		default:
			s.ifq = append(s.ifq, f)
			if inst.Op == isa.OpHalt || (inst.Op == isa.OpSys && inst.Imm == isa.SysExit) {
				s.fetchStalled = true
				return
			}
			s.fetchPC += isa.WordSize
		}
	}
}

type runawayError struct{ pc uint32 }

func (e *runawayError) Error() string {
	return fmt.Sprintf("refsim: committed-path fetch from invalid pc %#x", e.pc)
}
