package obs

import (
	"io"
	"strings"
	"testing"
)

// fakePipeline is a PipetraceView with a fixed two-entry iQ.
type fakePipeline struct{}

func (*fakePipeline) AppendPipetrace(dst []byte) []byte {
	return append(dst, " F 1040 X 1030:2"...)
}

// TestPipetraceLines pins the sink's two line shapes: a right-aligned
// cycle column on every line, one line per detailed cycle, and a marker
// line only for chains that replayed an action, naming the cycle its chain
// began at.
func TestPipetraceLines(t *testing.T) {
	var buf strings.Builder
	o := New(Options{PipetraceW: &buf})
	pl := &fakePipeline{}
	o.DetailedCycle(42, pl)
	o.ReplayBegin(43)
	o.ReplayEnd(43, 0, 0) // an empty chain draws no marker
	o.ReplayBegin(600)
	o.ReplayEnd(917, 12, 140)
	o.DetailedCycle(123456789, pl)
	if err := o.Finish(123456790); err != nil {
		t.Fatal(err)
	}
	want := "      42 | F 1040 X 1030:2\n" +
		"     917 | fast-forward from cycle 600: 12 episodes, 140 actions replayed\n" +
		"123456789 | F 1040 X 1030:2\n"
	if got := buf.String(); got != want {
		t.Fatalf("pipetrace:\n%s\nwant:\n%s", got, want)
	}
}

// TestDetailedCycleZeroAlloc: the per-detailed-cycle hook costs no
// allocation on a nil Observer, on an Observer without a pipetrace sink,
// and on an enabled sink once its line buffer is sized.
func TestDetailedCycleZeroAlloc(t *testing.T) {
	pl := &fakePipeline{}
	for name, o := range map[string]*Observer{
		"nil":       nil,
		"no sink":   New(Options{EventW: io.Discard, SpanW: io.Discard}),
		"pipetrace": New(Options{PipetraceW: io.Discard}),
	} {
		now := uint64(0)
		o.DetailedCycle(now, pl) // sizes the line buffer
		if avg := testing.AllocsPerRun(1000, func() {
			now++
			o.DetailedCycle(now, pl)
		}); avg != 0 {
			t.Errorf("%s: DetailedCycle allocates %.1f per cycle, want 0", name, avg)
		}
	}

	o := New(Options{PipetraceW: io.Discard})
	if avg := testing.AllocsPerRun(1000, func() {
		o.ReplayBegin(1)
		o.ReplayEnd(2, 1, 1)
	}); avg != 0 {
		t.Errorf("pipetrace marker allocates %.1f per chain, want 0", avg)
	}
}
