package obs

import (
	"bufio"
	"strconv"
)

// PipetraceView is a detailed pipeline as the pipetrace sink sees it
// (package uarch imports obs, so obs cannot name its types).
type PipetraceView interface {
	// AppendPipetrace appends the live iQ entries, oldest first, to dst
	// (" F 1040 X 1030:2 ...") and returns the extended slice.
	AppendPipetrace(dst []byte) []byte
}

// pipetraceSink writes the sim-outorder-style pipetrace: one line per
// detailed cycle and, under memoization, one marker line per fast-forward
// chain that replayed an action (replayed cycles are never re-simulated,
// so they have no pipeline state to print). Each line opens with the cycle
// number, right-aligned in eight columns:
//
//	42 | F 1040 F 1044 D 1038 X 1030:2 M 1028:5 W 1024
//	917 | fast-forward from cycle 600: 12 episodes, 140 actions replayed
type pipetraceSink struct {
	bw      *bufio.Writer
	buf     []byte // the line being built, reused so a line allocates nothing
	ffStart uint64 // cycle at which the current fast-forward chain began
}

func (p *pipetraceSink) cycle(now uint64, v PipetraceView) {
	p.write(v.AppendPipetrace(appendCycleColumn(p.buf[:0], now)))
}

func (p *pipetraceSink) chain(now, episodes, actions uint64) {
	b := append(appendCycleColumn(p.buf[:0], now), " fast-forward from cycle "...)
	b = strconv.AppendUint(b, p.ffStart, 10)
	b = strconv.AppendUint(append(b, ": "...), episodes, 10)
	b = strconv.AppendUint(append(b, " episodes, "...), actions, 10)
	p.write(append(b, " actions replayed"...))
}

func (p *pipetraceSink) write(b []byte) {
	p.buf = append(b, '\n')
	p.bw.Write(p.buf) //nolint:errcheck // sticky in the bufio.Writer; Observer.Close reports it
}

// appendCycleColumn appends a line's cycle column: the cycle number
// right-aligned in eight columns, then " |".
func appendCycleColumn(dst []byte, now uint64) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], now, 10)
	for i := len(d); i < 8; i++ {
		dst = append(dst, ' ')
	}
	return append(append(dst, d...), " |"...)
}
