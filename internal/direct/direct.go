// Package direct implements FastSim's speculative direct-execution
// (paper §3.2). The target program executes functionally, decoupled from
// and ahead of the µ-architecture timing simulation, with the
// instrumentation of Figure 3 applied:
//
//   - every load records its effective address in the lQ;
//   - every store records its effective address and the pre-store memory
//     value in the sQ (the pre-store value makes stores undoable);
//   - every conditional branch consults the branch predictor and execution
//     *follows the predicted direction*; a misprediction is detected
//     immediately by comparing the real branch condition against the
//     prediction, and in that case all register state is checkpointed in
//     the bQ before the wrong path is executed directly;
//   - every control transfer with more than one possible target
//     (conditional branch, indirect jump) suspends direct execution and
//     yields a ControlRec to the µ-architecture simulator.
//
// When the µ-architecture simulator resolves a mispredicted branch it calls
// Rollback: registers are restored from the bQ, wrong-path stores are
// undone newest-first from the sQ, and execution restarts at the corrected
// target — exactly the paper's recovery procedure.
//
// The paper splices instrumentation into SPARC binaries with EEL and runs
// them natively; a managed runtime cannot do that, so this package instead
// compiles each basic block, at its first visit, into a slice of per-opcode
// handlers with the instrumentation folded into the load and store handlers
// (compile.go), and finds blocks in a table indexed by pc (see DESIGN.md's
// substitution table). The algorithmic structure above is preserved
// verbatim.
package direct

import (
	"fmt"

	"fastsim/internal/bpred"
	"fastsim/internal/emulator"
	"fastsim/internal/isa"
	"fastsim/internal/obs"
	"fastsim/internal/program"
)

// Kind classifies a control record.
type Kind uint8

const (
	KindBranch Kind = iota // conditional branch
	KindIJump              // indirect jump (jalr)
	KindHalt               // halt or sys exit reached
	KindStall              // wrong-path execution ran off the rails
)

// ControlRec describes one control point reached by direct execution, in
// fetch order. The µ-architecture simulator consumes these records to walk
// the same (speculative) path that direct execution followed.
type ControlRec struct {
	PC           uint32 // address of the branch / jump / halt
	Kind         Kind
	Taken        bool   // actual direction (branches)
	Mispredicted bool   // prediction differed from actual direction
	Target       uint32 // actual next PC (the *correct* continuation)
	LQLen        int    // lQ length when the record was created
	SQLen        int    // sQ length when the record was created
}

// LoadRec is one lQ entry.
type LoadRec struct {
	Addr  uint32
	Width uint8
}

// StoreRec is one sQ entry: the effective address plus the pre-store value
// used to undo the store during rollback.
type StoreRec struct {
	Addr  uint32
	Old   uint64
	Width uint8
}

// checkpoint is one bQ entry: everything needed to restore architectural
// state to the moment just after a mispredicted branch executed.
type checkpoint struct {
	r        [isa.NumIntRegs]uint32
	f        [isa.NumFPRegs]float64
	checksum uint32
	outLen   int
	exited   bool
	exitCode uint32
	lqLen    int
	sqLen    int
	recIdx   int    // index of the mispredicted branch's ControlRec
	resume   uint32 // correct continuation PC
}

// Stats counts direct-execution activity.
type Stats struct {
	Insts          uint64 // functionally executed instructions, incl. wrong paths
	WrongPathInsts uint64 // executed while at least one checkpoint was live
	Rollbacks      uint64
	Checkpoints    uint64
	BQHighWater    int
}

// Engine is the speculative direct-execution engine for one program run.
type Engine struct {
	Prog *program.Program
	St   *emulator.State
	Pred bpred.Predictor

	lq      []LoadRec
	sq      []StoreRec
	recs    []ControlRec
	lqBase  int // absolute index of lq[0]
	sqBase  int
	recBase int

	PC     uint32
	Halted bool // a genuine (non-speculative) halt has been recorded

	bq    []checkpoint
	stats Stats

	blocks []*block // indexed by (pc - program.TextBase) / isa.WordSize
}

// MaxBlockInsts caps straight-line block length.
const MaxBlockInsts = 1024

// maxRunInsts bounds one RunToNextControlPoint call; a program that
// executes this many instructions without reaching a conditional branch,
// indirect jump or halt is spinning in a branchless infinite loop.
const maxRunInsts = 4 << 20

// New returns an engine ready to execute p from its entry point, sharing
// the given branch predictor (which FastSim also exposes to the µ-arch).
func New(p *program.Program, pred bpred.Predictor) *Engine {
	return &Engine{
		Prog:   p,
		St:     emulator.NewState(p),
		Pred:   pred,
		PC:     p.Entry,
		blocks: make([]*block, len(p.Text)),
	}
}

// blockAt returns the block starting at pc, compiling it at its first
// visit, or nil if pc is outside the text or unaligned (wrong paths only);
// such a pc has no table slot.
func (e *Engine) blockAt(pc uint32) *block {
	k := (pc - program.TextBase) / isa.WordSize
	if pc%isa.WordSize != 0 || k >= uint32(len(e.blocks)) {
		return nil
	}
	b := e.blocks[k]
	if b == nil {
		b = e.compile(pc)
		e.blocks[k] = b
	}
	return b
}

// Speculating reports whether any checkpoint is live (execution is on a
// known-wrong path).
func (e *Engine) Speculating() bool { return len(e.bq) > 0 }

// BQDepth returns the number of live checkpoints.
func (e *Engine) BQDepth() int { return len(e.bq) }

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// RegisterMetrics publishes the direct-execution counters into the
// observability registry.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	r.Counter(obs.MetricDirectInsts, &e.stats.Insts)
	r.Counter(obs.MetricWrongPathInsts, &e.stats.WrongPathInsts)
	r.Counter(obs.MetricRollbacks, &e.stats.Rollbacks)
	r.Counter(obs.MetricCheckpoints, &e.stats.Checkpoints)
}

// RunToNextControlPoint executes instructions functionally from the current
// PC until a control point is reached, appends exactly one ControlRec, and
// returns its index. The µ-architecture simulator calls this whenever its
// fetch stage has consumed all previously recorded control flow.
func (e *Engine) RunToNextControlPoint() (int, error) {
	if e.Halted {
		return 0, fmt.Errorf("direct: program already halted")
	}
	st := e.St
	executed := 0
	for {
		b := e.blockAt(e.PC)
		if b == nil {
			if e.Speculating() {
				// Wrong paths may run anywhere; park until rollback.
				return e.appendRec(ControlRec{PC: e.PC, Kind: KindStall,
					LQLen: e.NumLoads(), SQLen: e.NumStores()}), nil
			}
			return 0, fmt.Errorf("direct: invalid pc %#x on the committed path", e.PC)
		}
		for k := range b.body {
			o := &b.body[k]
			o.fn(e, st, &o.inst)
		}
		n := uint64(len(b.body))
		if b.kind != termCap {
			n++
		}
		executed += int(n)
		e.stats.Insts += n
		if e.Speculating() {
			e.stats.WrongPathInsts += n
		}

		switch b.kind {
		case termCap:
			// No terminator instruction; continue with the next block.
			e.PC = b.pc
		case termJump:
			e.PC = b.next(st, b.term, b.pc)
			if executed > maxRunInsts {
				return 0, fmt.Errorf("direct: no control point within %d instructions (branchless loop at %#x?)", maxRunInsts, e.PC)
			}
		case termBranch:
			return e.execBranch(b), nil
		case termIJump:
			e.PC = b.next(st, b.term, b.pc)
			return e.appendRec(ControlRec{PC: b.pc, Kind: KindIJump,
				Taken: true, Target: e.PC, LQLen: e.NumLoads(), SQLen: e.NumStores()}), nil
		case termHalt:
			b.next(st, b.term, b.pc)
			idx := e.appendRec(ControlRec{PC: b.pc, Kind: KindHalt,
				Target: b.pc, LQLen: e.NumLoads(), SQLen: e.NumStores()})
			if !e.Speculating() {
				e.Halted = true
			}
			return idx, nil
		}
	}
}

// execBranch handles a conditional branch terminator: evaluate the real
// condition, train the predictor, follow the *predicted* direction, and
// checkpoint into the bQ if mispredicted.
func (e *Engine) execBranch(b *block) int {
	st := e.St
	// Evaluate the real condition without committing a direction yet.
	fallthrough_ := b.pc + isa.WordSize
	actualNext := b.next(st, b.term, b.pc) // branches write no registers
	taken := actualNext != fallthrough_
	predicted := e.Pred.Update(b.pc, taken)
	mis := predicted != taken

	rec := ControlRec{PC: b.pc, Kind: KindBranch, Taken: taken,
		Mispredicted: mis, Target: actualNext, LQLen: e.NumLoads(), SQLen: e.NumStores()}
	idx := e.appendRec(rec)

	if mis {
		// Save all register state in the bQ, then execute the wrong path.
		cp := checkpoint{
			r:        st.R,
			f:        st.F,
			checksum: st.Checksum,
			outLen:   len(st.Output),
			exited:   st.Exited,
			exitCode: st.ExitCode,
			lqLen:    e.NumLoads(),
			sqLen:    e.NumStores(),
			recIdx:   idx,
			resume:   actualNext,
		}
		e.bq = append(e.bq, cp)
		e.stats.Checkpoints++
		if len(e.bq) > e.stats.BQHighWater {
			e.stats.BQHighWater = len(e.bq)
		}
		if predicted {
			e.PC = b.term.BranchTarget(b.pc)
		} else {
			e.PC = fallthrough_
		}
	} else {
		e.PC = actualNext
	}
	return idx
}

func (e *Engine) appendRec(r ControlRec) int {
	e.recs = append(e.recs, r)
	return e.recBase + len(e.recs) - 1
}

// Rollback restores architectural state to the checkpoint taken at the
// mispredicted branch whose ControlRec index is recIdx, undoing wrong-path
// stores newest-first and discarding all younger records, queue entries and
// checkpoints. Execution resumes at the corrected branch target. The
// µ-architecture simulator calls this when the branch resolves.
func (e *Engine) Rollback(recIdx int) error {
	// Find the checkpoint; it may not be the newest (nested mispredicts
	// resolve in any order, and resolving an older one discards younger).
	ci := -1
	for i := range e.bq {
		if e.bq[i].recIdx == recIdx {
			ci = i
			break
		}
	}
	if ci < 0 {
		return fmt.Errorf("direct: no checkpoint for record %d", recIdx)
	}
	cp := &e.bq[ci]
	st := e.St

	// Undo wrong-path stores in reverse order (paper §3.2).
	for k := len(e.sq) - 1; k >= cp.sqLen-e.sqBase; k-- {
		s := e.sq[k]
		st.Mem.WriteN(s.Addr, int(s.Width), s.Old)
	}
	e.sq = e.sq[:cp.sqLen-e.sqBase]
	e.lq = e.lq[:cp.lqLen-e.lqBase]
	e.recs = e.recs[:cp.recIdx+1-e.recBase]

	st.R = cp.r
	st.F = cp.f
	st.Checksum = cp.checksum
	st.Output = st.Output[:cp.outLen]
	st.Exited = cp.exited
	st.ExitCode = cp.exitCode

	e.PC = cp.resume
	e.bq = e.bq[:ci]
	e.stats.Rollbacks++
	e.Halted = false
	return nil
}

// NumLoads returns the absolute number of lQ entries ever recorded (and not
// rolled back); entry indices are absolute and stable across Trim.
func (e *Engine) NumLoads() int { return e.lqBase + len(e.lq) }

// NumStores returns the absolute number of live sQ entries.
func (e *Engine) NumStores() int { return e.sqBase + len(e.sq) }

// NumRecs returns the absolute number of live control records.
func (e *Engine) NumRecs() int { return e.recBase + len(e.recs) }

// Load returns the lQ entry with absolute index i.
func (e *Engine) Load(i int) LoadRec { return e.lq[i-e.lqBase] }

// Store returns the sQ entry with absolute index i.
func (e *Engine) Store(i int) StoreRec { return e.sq[i-e.sqBase] }

// Rec returns the control record with absolute index i.
func (e *Engine) Rec(i int) ControlRec { return e.recs[i-e.recBase] }

// Trim discards queue prefixes that the driver has fully consumed (retired);
// indices below the given absolute positions may become invalid. Trimming
// never crosses a live checkpoint, so rollback always remains possible. A
// queue is copied down only once its consumed prefix is at least half its
// length, so trimming at every retirement costs amortized O(1) per entry.
func (e *Engine) Trim(rec, lq, sq int) {
	for i := range e.bq {
		cp := &e.bq[i]
		if cp.recIdx+1 < rec {
			rec = cp.recIdx + 1
		}
		if cp.lqLen < lq {
			lq = cp.lqLen
		}
		if cp.sqLen < sq {
			sq = cp.sqLen
		}
	}
	trimQueue(&e.recs, &e.recBase, rec)
	trimQueue(&e.lq, &e.lqBase, lq)
	trimQueue(&e.sq, &e.sqBase, sq)
}

// trimQueue drops the entries of *q (whose first entry has absolute index
// *base) below absolute index head, once they are at least half of *q. A
// queue it leaves alone is not written.
func trimQueue[T any](q *[]T, base *int, head int) {
	if n := head - *base; n > 0 && 2*n >= len(*q) {
		*q = append((*q)[:0], (*q)[n:]...)
		*base = head
	}
}
