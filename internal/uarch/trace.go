package uarch

import (
	"fmt"
	"io"
)

// Tracer observes the pipeline cycle by cycle — the equivalent of
// sim-outorder's pipetrace. Tracing observes detailed simulation only;
// fast-forwarded cycles are replayed from the p-action cache without
// rebuilding pipeline state, so traces are produced with memoization
// disabled (SlowSim).
type Tracer interface {
	// Cycle is called at the end of every simulated cycle with the cycle
	// number just completed and the live iQ contents, oldest first. The
	// slice is only valid for the duration of the call.
	Cycle(now uint64, entries []Entry)
}

// stageLetters maps a Stage to its pipetrace letter: Fetched, Decoded
// (queued), eXecuting, Memory wait, Writeback-done.
var stageLetters = [numStages]byte{'F', 'D', 'X', 'M', 'W'}

// TextTracer renders one line per cycle:
//
//	42 | F 1040 F 1044 D 1038 X 1030:2 M 1028:5 W 1024
//
// Each entry shows its stage letter, PC (hex, without the 0x prefix) and,
// while executing or waiting on the cache, the remaining timer.
type TextTracer struct {
	W     io.Writer
	Every uint64 // emit every Nth cycle; 0 means every cycle
	buf   []byte
}

// NewTextTracer returns a tracer writing to w.
func NewTextTracer(w io.Writer) *TextTracer { return &TextTracer{W: w} }

// Cycle implements Tracer.
func (t *TextTracer) Cycle(now uint64, entries []Entry) {
	if t.Every > 1 && now%t.Every != 0 {
		return
	}
	b := t.buf[:0]
	b = append(b, fmt.Sprintf("%8d |", now)...)
	for i := range entries {
		e := &entries[i]
		b = append(b, ' ', stageLetters[e.Stage], ' ')
		b = append(b, fmt.Sprintf("%x", e.PC)...)
		if (e.Stage == StExec || e.Stage == StWaitCache) && e.Timer > 0 {
			b = append(b, fmt.Sprintf(":%d", e.Timer)...)
		}
	}
	b = append(b, '\n')
	t.buf = b
	t.W.Write(b) //nolint:errcheck // W keeps its own first error (core wraps Config.Trace)
}

// attach in Pipeline.Step is guarded by a nil check; see pipeline.go.
