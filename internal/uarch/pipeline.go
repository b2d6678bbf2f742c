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

// New returns a pipeline fetching from startPC.
func New(p Params, prog *program.Program, env Env, startPC uint32) (*Pipeline, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{P: p, Prog: prog, Env: env, nextFetchPC: startPC}, nil
}

// Done reports whether the program's halt instruction has retired.
func (pl *Pipeline) Done() bool { return pl.done }

// Entries returns the live iQ contents, oldest first (for tracing/tests).
func (pl *Pipeline) Entries() []Entry { return pl.iq }

// RegisterMetrics publishes pipeline gauges into the observability
// registry. SlowSim calls it on its one pipeline; the memo engine, which
// rebuilds the pipeline at every replay stop, registers its own gauges once
// that follow the live instance.
func (pl *Pipeline) RegisterMetrics(r *obs.Registry) {
	r.Gauge(obs.MetricIQDepth, func() float64 { return float64(len(pl.iq)) })
	r.Gauge(obs.MetricUarchCycle, func() float64 { return float64(pl.Now) })
}

// Step simulates one cycle: retire, progress execution, issue, decode,
// fetch — making one complete pass over the iQ in program order, with all
// structural constraints recomputed from the iQ itself.
func (pl *Pipeline) Step() {
	if pl.done {
		return
	}
	pl.retire()
	if !pl.done {
		pl.progress()
		pl.issue()
		pl.decode()
		pl.fetch()
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
	for len(pl.iq) > 0 && n < pl.P.RetireWidth {
		e := &pl.iq[0]
		if e.Stage != StDone {
			break
		}
		n++
		switch e.Class {
		case isa.ClassLoad:
			loads++
		case isa.ClassStore:
			stores++
		}
		if consumesOutcome(e.Inst) {
			recs++
		}
		if isHaltInst(e.Inst) {
			halt = true
		}
		pl.iq = append(pl.iq[:0], pl.iq[1:]...)
		if halt {
			break
		}
	}
	if n > 0 {
		pl.Env.RetirePop(n, loads, stores, recs)
	}
	if halt {
		pl.Env.HaltRetired()
		pl.done = true
	}
}

// progress advances executing instructions and waiting loads by one cycle,
// resolving branches (with squash + rollback on mispredicts), indirect
// jumps, and load/store cache issue.
func (pl *Pipeline) progress() {
	for i := 0; i < len(pl.iq); i++ {
		e := &pl.iq[i]
		switch e.Stage {
		case StExec:
			e.Timer--
			if e.Timer > 0 {
				continue
			}
			switch e.Class {
			case isa.ClassBranch:
				e.Stage = StDone
				if e.Mispred {
					pl.squash(i)
					return // nothing younger survives
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

// issue moves ready instructions from the issue queues into execution,
// oldest first, limited by functional units. Register dependences are
// recomputed from the iQ on every pass, modelling the paper's per-cycle
// renaming recomputation.
func (pl *Pipeline) issue() {
	intSlots := pl.P.IntALUs
	fpSlots := pl.P.FPUs
	addrSlots := pl.P.AddrAdders

	// Non-pipelined units: at most one divide (and one sqrt) in flight.
	intDivBusy, fpDivBusy, fpSqrtBusy := false, false, false
	for k := range pl.iq {
		if pl.iq[k].Stage != StExec {
			continue
		}
		switch pl.iq[k].Class {
		case isa.ClassIntDiv:
			intDivBusy = true
		case isa.ClassFPDiv:
			fpDivBusy = true
		case isa.ClassFPSqrt:
			fpSqrtBusy = true
		}
	}

	var lastProd [isa.NumIntRegs + isa.NumFPRegs]int
	for k := range lastProd {
		lastProd[k] = -1
	}
	var srcs []isa.Reg
	olderStoreUnissued := false

	for i := range pl.iq {
		e := &pl.iq[i]
		if e.Stage == StQueued {
			ready := true
			srcs = e.Inst.Uses(srcs[:0])
			for _, s := range srcs {
				if p := lastProd[s]; p >= 0 && pl.iq[p].Stage != StDone {
					ready = false
					break
				}
			}
			if ready {
				switch e.Class.Queue() {
				case isa.QueueInt:
					if intSlots > 0 && !(e.Class == isa.ClassIntDiv && intDivBusy) {
						intSlots--
						e.Stage = StExec
						e.Timer = uint32(e.Inst.Op.Latency())
						if e.Class == isa.ClassIntDiv {
							intDivBusy = true
						}
					}
				case isa.QueueFP:
					blocked := (e.Class == isa.ClassFPDiv && fpDivBusy) ||
						(e.Class == isa.ClassFPSqrt && fpSqrtBusy)
					if fpSlots > 0 && !blocked {
						fpSlots--
						e.Stage = StExec
						e.Timer = uint32(e.Inst.Op.Latency())
						switch e.Class {
						case isa.ClassFPDiv:
							fpDivBusy = true
						case isa.ClassFPSqrt:
							fpSqrtBusy = true
						}
					}
				case isa.QueueAddr:
					// Stores issue in order among stores; loads are free.
					if addrSlots > 0 &&
						!(e.Class == isa.ClassStore && olderStoreUnissued) {
						addrSlots--
						e.Stage = StExec
						e.Timer = uint32(e.Inst.Op.Latency())
					}
				}
			}
		}
		if e.Class == isa.ClassStore && e.Stage != StDone {
			olderStoreUnissued = true
		}
		if d := e.Inst.Def(); d != isa.RegNone {
			lastProd[d] = i
		}
	}
}

// decode renames up to DecodeWidth fetched instructions in order, subject
// to issue-queue space and physical-register availability, both recomputed
// from the iQ.
func (pl *Pipeline) decode() {
	// Current occupancy and physical-register pressure.
	var qOcc [isa.NumQueues]int
	intDefs, fpDefs := 0, 0
	first := -1
	for i := range pl.iq {
		e := &pl.iq[i]
		if e.Stage == StFetched {
			if first < 0 {
				first = i
			}
			continue
		}
		if e.Stage == StQueued {
			qOcc[e.Class.Queue()]++
		}
		if d := e.Inst.Def(); d != isa.RegNone {
			if d.IsFP() {
				fpDefs++
			} else {
				intDefs++
			}
		}
	}
	if first < 0 {
		return
	}
	qCap := [isa.NumQueues]int{pl.P.IntQueue, pl.P.FPQueue, pl.P.AddrQueue, 1 << 30}
	for n := 0; n < pl.P.DecodeWidth && first+n < len(pl.iq); n++ {
		e := &pl.iq[first+n]
		if e.Stage != StFetched {
			desync("non-contiguous fetched instructions at %#x", e.PC)
		}
		// Physical registers: 32 architectural + in-flight defs per file.
		if d := e.Inst.Def(); d != isa.RegNone {
			if d.IsFP() {
				if isa.NumFPRegs+fpDefs+1 > pl.P.PhysFP {
					return
				}
			} else {
				if isa.NumIntRegs+intDefs+1 > pl.P.PhysInt {
					return
				}
			}
		}
		if e.Class == isa.ClassJump {
			// Direct jumps need no issue queue: complete at rename.
			e.Stage = StDone
		} else {
			q := e.Class.Queue()
			if qOcc[q]+1 > qCap[q] {
				return
			}
			qOcc[q]++
			e.Stage = StQueued
		}
		if d := e.Inst.Def(); d != isa.RegNone {
			if d.IsFP() {
				fpDefs++
			} else {
				intDefs++
			}
		}
	}
}

// fetch brings up to FetchWidth instructions into the iQ along the
// speculative path, consuming a control outcome at every conditional
// branch, indirect jump and halt, and stopping at control transfers
// (one-cycle redirect) and at the speculation-depth limit.
func (pl *Pipeline) fetch() {
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
	specDepth := 0
	for k := range pl.iq {
		if pl.iq[k].Class == isa.ClassBranch && pl.iq[k].Stage != StDone {
			specDepth++
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
		e := Entry{
			PC: pl.nextFetchPC, Inst: inst, Class: inst.Class(),
			Stage: StFetched, RecIdx: -1, LQIdx: -1, SQIdx: -1,
		}
		switch {
		case e.Class == isa.ClassBranch:
			if specDepth >= pl.P.MaxSpecBranches {
				return
			}
			out := pl.Env.NextOutcome()
			if out.Kind != direct.KindBranch || out.PC != e.PC {
				desync("branch at %#x got record kind %d pc %#x", e.PC, out.Kind, out.PC)
			}
			e.Taken, e.Mispred, e.RecIdx = out.Taken, out.Mispredicted, out.RecIdx
			if fetchTaken(e.Taken, e.Mispred) {
				pl.nextFetchPC = e.Inst.BranchTarget(e.PC)
			} else {
				pl.nextFetchPC = e.PC + isa.WordSize
			}
			pl.iq = append(pl.iq, e)
			return // control transfer ends the fetch group
		case e.Class == isa.ClassJumpInd:
			out := pl.Env.NextOutcome()
			if out.Kind != direct.KindIJump || out.PC != e.PC {
				desync("jalr at %#x got record kind %d pc %#x", e.PC, out.Kind, out.PC)
			}
			e.Target, e.RecIdx = out.Target, out.RecIdx
			pl.iq = append(pl.iq, e)
			return // fetch blocks until the jalr resolves
		case isHaltInst(inst):
			out := pl.Env.NextOutcome()
			if out.Kind != direct.KindHalt || out.PC != e.PC {
				desync("halt at %#x got record kind %d pc %#x", e.PC, out.Kind, out.PC)
			}
			e.RecIdx = out.RecIdx
			pl.iq = append(pl.iq, e)
			return // nothing beyond the halt
		case e.Class == isa.ClassJump:
			pl.nextFetchPC = e.Inst.BranchTarget(e.PC)
			pl.iq = append(pl.iq, e)
			return // one-cycle redirect
		case e.Class == isa.ClassLoad:
			e.LQIdx = pl.fetchLQ
			pl.fetchLQ++
			pl.iq = append(pl.iq, e)
			pl.nextFetchPC += isa.WordSize
		case e.Class == isa.ClassStore:
			e.SQIdx = pl.fetchSQ
			pl.fetchSQ++
			pl.iq = append(pl.iq, e)
			pl.nextFetchPC += isa.WordSize
		default:
			pl.iq = append(pl.iq, e)
			pl.nextFetchPC += isa.WordSize
		}
	}
}
