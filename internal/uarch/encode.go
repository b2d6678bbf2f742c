package uarch

import (
	"fmt"

	"fastsim/internal/isa"
	"fastsim/internal/program"
)

// Configuration encoding (paper §4.2). A configuration is a snapshot of the
// iQ taken between cycles, compressed by exploiting program order: only the
// starting PC of the oldest instruction is stored; every later PC is
// reconstructed from the static code plus one taken/not-taken bit per
// conditional branch and the 32-bit target of each indirect jump. The
// per-instruction dynamic state (stage, timer, branch outcome bits) packs
// into two bytes, with a rare 4-byte escape for very long cache waits.
//
// Layout:
//
//	u32  nextFetchPC
//	u8   flags (bit 0: fetch stalled on an invalid wrong-path pc)
//	u8   entry count
//	u32  PC of the oldest entry (only if count > 0)
//	per entry:
//	  u16  stage(3) | taken(1) | mispred(1) | timer(11)
//	       timer == 0x7FF escapes to a following u32 with the full value
//	  u32  target (indirect jumps only)
//
// Everything not in this encoding is either recomputed every cycle from the
// iQ (renaming, queue occupancy, functional units, speculation depth),
// external (cache and predictor internals, queue contents), or a driver
// handle reconstructed from the queue heads (RecIdx/LQIdx/SQIdx).
const (
	timerEscape = 0x7FF
	headerBytes = 6
)

func putU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }
func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// EncodeConfig appends the pipeline's current configuration to buf and
// returns the extended slice. It must only be called between cycles.
func (pl *Pipeline) EncodeConfig(buf []byte) []byte {
	buf = putU32(buf, pl.nextFetchPC)
	var flags byte
	if pl.fetchStall {
		flags |= 1
	}
	buf = append(buf, flags, byte(len(pl.iq)))
	if len(pl.iq) == 0 {
		return buf
	}
	buf = putU32(buf, pl.iq[0].PC)
	for i := range pl.iq {
		e := &pl.iq[i]
		w := uint16(e.Stage) << 13
		if e.Taken {
			w |= 1 << 12
		}
		if e.Mispred {
			w |= 1 << 11
		}
		if e.Timer >= timerEscape {
			w |= timerEscape
			buf = putU16(buf, w)
			buf = putU32(buf, e.Timer)
		} else {
			w |= uint16(e.Timer)
			buf = putU16(buf, w)
		}
		if e.Class == isa.ClassJumpInd {
			buf = putU32(buf, e.Target)
		}
	}
	return buf
}

// successorPC returns the PC of the instruction fetched after e. For a
// mispredicted branch the answer depends on whether it has resolved: before
// resolution fetch followed the predicted (wrong) direction; after the
// squash, younger instructions are from the corrected path.
func successorPC(e *Entry) uint32 {
	switch e.Class {
	case isa.ClassBranch:
		t := fetchTaken(e.Taken, e.Mispred)
		if e.Stage == StDone && e.Mispred {
			t = e.Taken
		}
		if t {
			return e.Inst.BranchTarget(e.PC)
		}
		return e.PC + isa.WordSize
	case isa.ClassJump:
		return e.Inst.BranchTarget(e.PC)
	case isa.ClassJumpInd:
		return e.Target
	default:
		return e.PC + isa.WordSize
	}
}

// Heads are the driver's absolute queue positions, used to rebind the
// restored entries' external handles.
type Heads struct {
	Rec int // control records fully retired
	LQ  int // lQ entries popped
	SQ  int // sQ entries popped
}

// Restore refills the pipeline in place from an encoded configuration. The
// memoization layer calls it when fast-forwarding stops at a previously
// unseen outcome and detailed simulation must resume from the last
// configuration. now restores the cycle counter (which is deliberately not
// part of the configuration), and heads rebind RecIdx/LQIdx/SQIdx. P, Prog,
// Env and Obs are kept. On error the pipeline's state is undefined.
func (pl *Pipeline) Restore(key string, now uint64, heads Heads) error {
	pl.iq = pl.iq[:0]
	pl.Now = now
	pl.done = false
	pl.fetchLQ, pl.fetchSQ = heads.LQ, heads.SQ
	if len(key) < headerBytes {
		return fmt.Errorf("uarch: truncated configuration (%d bytes)", len(key))
	}
	pl.nextFetchPC = uint32(key[0]) | uint32(key[1])<<8 | uint32(key[2])<<16 | uint32(key[3])<<24
	if key[4]&^1 != 0 {
		return fmt.Errorf("uarch: unknown flag bits %#x in configuration", key[4])
	}
	pl.fetchStall = key[4]&1 != 0
	count := int(key[5])
	pos := headerBytes

	rdU32 := func() (uint32, error) {
		if pos+4 > len(key) {
			return 0, fmt.Errorf("uarch: truncated configuration at byte %d", pos)
		}
		v := uint32(key[pos]) | uint32(key[pos+1])<<8 | uint32(key[pos+2])<<16 | uint32(key[pos+3])<<24
		pos += 4
		return v, nil
	}

	recs := heads.Rec
	pc := uint32(0)
	var err error
	if count > 0 {
		if pc, err = rdU32(); err != nil {
			return err
		}
	}
	for i := 0; i < count; i++ {
		if pos+2 > len(key) {
			return fmt.Errorf("uarch: truncated configuration at entry %d", i)
		}
		w := uint16(key[pos]) | uint16(key[pos+1])<<8
		pos += 2
		inst, ok := pl.Prog.InstAt(pc)
		if !ok {
			return fmt.Errorf("uarch: configuration references invalid pc %#x", pc)
		}
		e := pl.newEntry(pc, inst)
		e.Stage = Stage(w >> 13)
		e.Taken = w&(1<<12) != 0
		e.Mispred = w&(1<<11) != 0
		e.Timer = uint32(w & timerEscape)
		if e.Stage >= numStages {
			return fmt.Errorf("uarch: bad stage %d in configuration", e.Stage)
		}
		if e.Timer == timerEscape {
			if e.Timer, err = rdU32(); err != nil {
				return err
			}
		}
		if e.Class == isa.ClassJumpInd {
			if e.Target, err = rdU32(); err != nil {
				return err
			}
		}
		if consumesOutcome(inst) {
			e.RecIdx = recs
			recs++
		}
		pl.iq = append(pl.iq, e)
		pc = successorPC(&e)
	}
	if pos != len(key) {
		return fmt.Errorf("uarch: %d trailing bytes in configuration", len(key)-pos)
	}
	return nil
}

// DumpConfig renders a configuration key for debugging and traces.
func DumpConfig(prog *program.Program, key []byte) string {
	pl, _ := New(DefaultParams(), prog, nil, 0) // DefaultParams always validate
	if err := pl.Restore(string(key), 0, Heads{}); err != nil {
		return fmt.Sprintf("<bad config: %v>", err)
	}
	s := fmt.Sprintf("fetch=%#x stall=%v n=%d", pl.nextFetchPC, pl.fetchStall, len(pl.iq))
	for i := range pl.iq {
		e := &pl.iq[i]
		s += fmt.Sprintf("\n  %#x %-24s %-10s t=%d", e.PC, e.Inst, e.Stage, e.Timer)
		if e.Class == isa.ClassBranch {
			s += fmt.Sprintf(" taken=%v mis=%v", e.Taken, e.Mispred)
		}
	}
	return s
}
