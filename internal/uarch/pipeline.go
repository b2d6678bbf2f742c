package uarch

import (
	"fmt"

	"fastsim/internal/direct"
	"fastsim/internal/isa"
	"fastsim/internal/obs"
	"fastsim/internal/program"
)

// Stage is the pipeline stage recorded per iQ entry. Together with Timer it
// is the per-instruction state the paper describes: "in which pipeline
// stage an instruction resides and the minimum number of cycles before this
// stage might change".
type Stage uint8

const (
	StFetched   Stage = iota // fetched, awaiting decode/rename
	StQueued                 // waiting in an issue queue
	StExec                   // executing (Timer cycles remain)
	StWaitCache              // load waiting on the cache simulator (Timer cycles)
	StDone                   // complete, awaiting in-order retirement
	numStages
)

func (s Stage) String() string {
	return [...]string{"fetched", "queued", "exec", "wait-cache", "done"}[s]
}

// Entry is one iQ slot. PC, Stage, Timer and the control-flow bits
// (Taken/Mispred/Target) form the memoized configuration; RecIdx, LQIdx and
// SQIdx are driver-side handles reconstructed from queue heads when a
// configuration is decoded.
type Entry struct {
	PC    uint32
	Inst  isa.Inst
	Class isa.Class
	Stage Stage
	Timer uint32

	Taken   bool   // conditional branch: actual direction
	Mispred bool   // conditional branch: prediction was wrong
	Target  uint32 // indirect jump: actual target (known from fetch)

	RecIdx int // control record handle (-1 if none)
	LQIdx  int // lQ slot (-1 if not a load)
	SQIdx  int // sQ slot (-1 if not a store)
}

// isHaltInst reports whether inst terminates the program (halt or exit).
func isHaltInst(inst isa.Inst) bool {
	return inst.Op == isa.OpHalt || (inst.Op == isa.OpSys && inst.Imm == isa.SysExit)
}

// consumesOutcome reports whether fetching inst consumes a control record.
func consumesOutcome(inst isa.Inst) bool {
	cls := inst.Class()
	return cls == isa.ClassBranch || cls == isa.ClassJumpInd || isHaltInst(inst)
}

// fetchTaken returns the direction fetch followed past a conditional
// branch: the predicted direction (actual direction XOR mispredicted).
func fetchTaken(taken, mispred bool) bool {
	if mispred {
		return !taken
	}
	return taken
}

// Desync is the panic value raised when the pipeline's view of the
// instruction stream disagrees with direct execution — always a simulator
// bug, never a target program condition.
type Desync struct{ Msg string }

func (d Desync) Error() string { return "uarch: desync: " + d.Msg }

func desync(format string, args ...interface{}) {
	panic(Desync{fmt.Sprintf(format, args...)})
}

// Pipeline is the detailed µ-architecture simulator.
type Pipeline struct {
	P    Params
	Prog *program.Program
	Env  Env

	// Obs, when non-nil, is told of every simulated cycle (DetailedCycle)
	// for its pipetrace sink.
	Obs *obs.Observer

	Now uint64 // current cycle

	iq          []Entry
	nextFetchPC uint32
	fetchStall  bool // wrong-path fetch ran off the text segment
	done        bool

	fetchLQ int // next lQ slot to assign at fetch
	fetchSQ int // next sQ slot to assign at fetch
}

// New returns a pipeline fetching from startPC. A run builds one and keeps
// it: the memo engine Restores it at every replay stop.
func New(p Params, prog *program.Program, env Env, startPC uint32) (*Pipeline, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{P: p, Prog: prog, Env: env, nextFetchPC: startPC,
		iq: make([]Entry, 0, p.ActiveList)}, nil
}

// Done reports whether the program's halt instruction has retired.
func (pl *Pipeline) Done() bool { return pl.done }

// Entries returns the live iQ contents, oldest first (for tracing/tests).
func (pl *Pipeline) Entries() []Entry { return pl.iq }

// RegisterMetrics publishes pipeline gauges into the observability
// registry.
func (pl *Pipeline) RegisterMetrics(r *obs.Registry) {
	r.Gauge(obs.MetricIQDepth, func() float64 { return float64(len(pl.iq)) })
	r.Gauge(obs.MetricUarchCycle, func() float64 { return float64(pl.Now) })
}

// Step simulates one cycle: retire, progress execution, issue, decode,
// fetch. All structural constraints are recomputed from the iQ itself, in
// one census taken by progress's and issue's in-order passes and handed to
// decode and fetch; nothing from one Step is read in the next.
func (pl *Pipeline) Step() {
	if pl.done {
		return
	}
	pl.retire()
	if !pl.done {
		c := pl.issue(pl.progress())
		pl.decode(&c)
		pl.fetch(c.unresolved)
	}
	if pl.Obs != nil {
		pl.Obs.DetailedCycle(pl.Now, pl)
	}
	pl.Now++
}

// retire removes completed instructions from the head of the iQ, in program
// order, up to RetireWidth per cycle.
func (pl *Pipeline) retire() {
	var n, loads, stores, recs int
	halt := false
	for ; n < len(pl.iq) && n < pl.P.RetireWidth && !halt; n++ {
		e := &pl.iq[n]
		if e.Stage != StDone {
			break
		}
		switch e.Class {
		case isa.ClassLoad:
			loads++
		case isa.ClassStore:
			stores++
		}
		if consumesOutcome(e.Inst) {
			recs++
		}
		halt = isHaltInst(e.Inst)
	}
	if n == 0 {
		return
	}
	pl.iq = pl.iq[:copy(pl.iq, pl.iq[n:])]
	pl.Env.RetirePop(n, loads, stores, recs)
	if halt {
		pl.Env.HaltRetired()
		pl.done = true
	}
}

// progress advances executing instructions and waiting loads by one cycle,
// resolving branches (with squash + rollback on mispredicts), indirect
// jumps, and load/store cache issue. It returns the classes with an
// instruction still executing; issue reads it for the non-pipelined units.
func (pl *Pipeline) progress() (busy [isa.NumClasses]bool) {
	for i := 0; i < len(pl.iq); i++ {
		e := &pl.iq[i]
		switch e.Stage {
		case StExec:
			e.Timer--
			if e.Timer > 0 {
				busy[e.Class] = true
				continue
			}
			switch e.Class {
			case isa.ClassBranch:
				e.Stage = StDone
				if e.Mispred {
					pl.squash(i)
					return busy // nothing younger survives
				}
			case isa.ClassJumpInd:
				e.Stage = StDone
				if i != len(pl.iq)-1 {
					desync("unresolved jalr at %#x had younger instructions", e.PC)
				}
				pl.nextFetchPC = e.Target // fetch resumes at the real target
			case isa.ClassLoad:
				d := pl.Env.IssueLoad(e.LQIdx, pl.Now)
				if d < 1 {
					d = 1
				}
				e.Stage = StWaitCache
				e.Timer = uint32(d)
			case isa.ClassStore:
				pl.Env.IssueStore(e.SQIdx, pl.Now)
				e.Stage = StDone
			default:
				e.Stage = StDone
			}
		case StWaitCache:
			e.Timer--
			if e.Timer > 0 {
				continue
			}
			ready, d := pl.Env.PollLoad(e.LQIdx, pl.Now)
			if ready {
				e.Stage = StDone
			} else {
				if d < 1 {
					d = 1
				}
				e.Timer = uint32(d)
			}
		}
	}
	return busy
}

// squash discards every instruction younger than the mispredicted branch at
// index i, cancelling their in-flight cache requests, rolls back direct
// execution, and redirects fetch to the corrected target.
func (pl *Pipeline) squash(i int) {
	b := &pl.iq[i]
	for j := i + 1; j < len(pl.iq); j++ {
		if pl.iq[j].Stage == StWaitCache {
			pl.Env.CancelLoad(pl.iq[j].LQIdx)
		}
	}
	pl.iq = pl.iq[:i+1]
	lq, sq := pl.Env.Rollback(b.RecIdx)
	pl.fetchLQ, pl.fetchSQ = lq, sq
	if b.Taken {
		pl.nextFetchPC = b.Inst.BranchTarget(b.PC)
	} else {
		pl.nextFetchPC = b.PC + isa.WordSize
	}
	pl.fetchStall = false
}

// census is what one cycle's in-order passes learn about the iQ, handed
// forward to decode and fetch and dropped at the end of the cycle. It is
// the paper's per-cycle recomputation of queue occupancy, renaming and
// speculation depth, done once.
type census struct {
	waiting    [isa.NumQueues]int // StQueued entries per issue queue, after issue
	intDefs    int                // renamed (non-fetched) integer definitions
	fpDefs     int                // renamed (non-fetched) FP definitions
	fetched    int                // index of the oldest StFetched entry, -1 if none
	unresolved int                // conditional branches not yet resolved
}

// nonPipelined reports whether class c's functional unit holds one
// instruction at a time: at most one integer divide, one FP divide and one
// FP square root execute at once.
func nonPipelined(c isa.Class) bool {
	return c == isa.ClassIntDiv || c == isa.ClassFPDiv || c == isa.ClassFPSqrt
}

// issue moves ready instructions from the issue queues into execution,
// oldest first, limited by functional units, and takes the cycle's census
// in the same pass. Register dependences are recomputed from the iQ on
// every pass, modelling the paper's per-cycle renaming recomputation.
// Fetched entries form the iQ's tail: they neither issue nor rename yet.
func (pl *Pipeline) issue(busy [isa.NumClasses]bool) census {
	// Free functional units serving each queue this cycle.
	free := [isa.NumQueues]int{pl.P.IntALUs, pl.P.FPUs, pl.P.AddrAdders}
	// Each register's youngest definition so far: iQ index+1, 0 if none.
	var lastProd [isa.NumIntRegs + isa.NumFPRegs]uint8
	olderStoreUnissued := false
	c := census{fetched: -1}

	for i := range pl.iq {
		e := &pl.iq[i]
		if e.Class == isa.ClassBranch && e.Stage != StDone {
			c.unresolved++
		}
		if e.Stage == StFetched {
			if c.fetched < 0 {
				c.fetched = i
			}
			continue
		}
		if e.Stage == StQueued {
			q := e.Class.Queue()
			// Stores issue in order among stores; loads are free.
			if free[q] > 0 && !(nonPipelined(e.Class) && busy[e.Class]) &&
				!(e.Class == isa.ClassStore && olderStoreUnissued) &&
				pl.operandsReady(e, &lastProd) {
				free[q]--
				busy[e.Class] = true
				e.Stage = StExec
				e.Timer = uint32(e.Inst.Op.Latency())
			} else {
				c.waiting[q]++
			}
		}
		if e.Class == isa.ClassStore && e.Stage != StDone {
			olderStoreUnissued = true
		}
		if d := e.Inst.Def(); d != isa.RegNone {
			lastProd[d] = uint8(i + 1)
			if d.IsFP() {
				c.fpDefs++
			} else {
				c.intDefs++
			}
		}
	}
	return c
}

// operandsReady reports whether every source register of e has its
// youngest older definition done. lastProd holds iQ index+1 per register.
func (pl *Pipeline) operandsReady(e *Entry, lastProd *[isa.NumIntRegs + isa.NumFPRegs]uint8) bool {
	var buf [2]isa.Reg
	for _, s := range e.Inst.Uses(buf[:0]) {
		if p := lastProd[s]; p != 0 && pl.iq[p-1].Stage != StDone {
			return false
		}
	}
	return true
}

// decode renames up to DecodeWidth fetched instructions in order, subject
// to issue-queue space and physical-register availability, both taken from
// the cycle's census.
func (pl *Pipeline) decode(c *census) {
	if c.fetched < 0 {
		return
	}
	qCap := [isa.NumQueues]int{pl.P.IntQueue, pl.P.FPQueue, pl.P.AddrQueue}
	for i := c.fetched; i < len(pl.iq) && i < c.fetched+pl.P.DecodeWidth; i++ {
		e := &pl.iq[i]
		if e.Stage != StFetched {
			desync("non-contiguous fetched instructions at %#x", e.PC)
		}
		// Physical registers: 32 architectural + in-flight defs per file.
		if d := e.Inst.Def(); d != isa.RegNone {
			defs, phys := &c.intDefs, pl.P.PhysInt-isa.NumIntRegs
			if d.IsFP() {
				defs, phys = &c.fpDefs, pl.P.PhysFP-isa.NumFPRegs
			}
			if *defs >= phys {
				return
			}
			*defs++
		}
		if e.Class == isa.ClassJump {
			// Direct jumps need no issue queue: complete at rename.
			e.Stage = StDone
			continue
		}
		q := e.Class.Queue()
		if c.waiting[q] >= qCap[q] {
			return
		}
		c.waiting[q]++
		e.Stage = StQueued
	}
}

// newEntry returns the fetched-stage entry for inst at pc, binding a load
// or store to the next lQ or sQ slot in program order.
func (pl *Pipeline) newEntry(pc uint32, inst isa.Inst) Entry {
	e := Entry{
		PC: pc, Inst: inst, Class: inst.Class(),
		Stage: StFetched, RecIdx: -1, LQIdx: -1, SQIdx: -1,
	}
	switch e.Class {
	case isa.ClassLoad:
		e.LQIdx = pl.fetchLQ
		pl.fetchLQ++
	case isa.ClassStore:
		e.SQIdx = pl.fetchSQ
		pl.fetchSQ++
	}
	return e
}

// outcome consumes the next control record, which must be of kind k and
// belong to the instruction (named what) at pc.
func (pl *Pipeline) outcome(k direct.Kind, pc uint32, what string) Outcome {
	out := pl.Env.NextOutcome()
	if out.Kind != k || out.PC != pc {
		desync("%s at %#x got record kind %d pc %#x", what, pc, out.Kind, out.PC)
	}
	return out
}

// fetch brings up to FetchWidth instructions into the iQ along the
// speculative path, consuming a control outcome at every conditional
// branch, indirect jump and halt, and stopping at control transfers
// (one-cycle redirect) and at the speculation-depth limit. unresolved is
// the census's count of conditional branches in flight.
func (pl *Pipeline) fetch(unresolved int) {
	if pl.fetchStall {
		return
	}
	if n := len(pl.iq); n > 0 {
		last := &pl.iq[n-1]
		if last.Class == isa.ClassJumpInd && last.Stage != StDone {
			return // indirect jump target not yet resolved
		}
		if isHaltInst(last.Inst) {
			return // nothing beyond the halt
		}
	}

	for f := 0; f < pl.P.FetchWidth; f++ {
		if len(pl.iq) >= pl.P.ActiveList {
			return
		}
		inst, ok := pl.Prog.InstAt(pl.nextFetchPC)
		if !ok {
			// Fetch follows the same wrong path direct execution took;
			// running off the text must match a stall record.
			out := pl.Env.NextOutcome()
			if out.Kind != direct.KindStall {
				desync("invalid fetch pc %#x but record kind %d", pl.nextFetchPC, out.Kind)
			}
			pl.fetchStall = true
			return
		}
		e := pl.newEntry(pl.nextFetchPC, inst)
		switch {
		case e.Class == isa.ClassBranch:
			if unresolved >= pl.P.MaxSpecBranches {
				return
			}
			out := pl.outcome(direct.KindBranch, e.PC, "branch")
			e.Taken, e.Mispred, e.RecIdx = out.Taken, out.Mispredicted, out.RecIdx
		case e.Class == isa.ClassJumpInd:
			out := pl.outcome(direct.KindIJump, e.PC, "jalr")
			e.Target, e.RecIdx = out.Target, out.RecIdx
		case isHaltInst(inst):
			e.RecIdx = pl.outcome(direct.KindHalt, e.PC, "halt").RecIdx
		}
		pl.iq = append(pl.iq, e)
		switch {
		case e.Class == isa.ClassBranch || e.Class == isa.ClassJump:
			pl.nextFetchPC = successorPC(&e)
			return // control transfer ends the fetch group (one-cycle redirect)
		case e.Class == isa.ClassJumpInd:
			return // fetch blocks until the jalr resolves
		case isHaltInst(inst):
			return // nothing beyond the halt
		}
		pl.nextFetchPC += isa.WordSize
	}
}
