package uarch

import "strconv"

// stageLetters maps a Stage to its pipetrace letter: Fetched, Decoded
// (queued), eXecuting, Memory wait, Writeback-done.
var stageLetters = [numStages]byte{'F', 'D', 'X', 'M', 'W'}

// AppendPipetrace implements obs.PipetraceView, the body of a pipetrace
// line (the equivalent of sim-outorder's pipetrace):
//
//	F 1040 F 1044 D 1038 X 1030:2 M 1028:5 W 1024
//
// Each live iQ entry, oldest first, shows its stage letter, PC (hex,
// without the 0x prefix) and, while executing or waiting on the cache, the
// remaining timer.
func (pl *Pipeline) AppendPipetrace(dst []byte) []byte {
	for i := range pl.iq {
		e := &pl.iq[i]
		dst = append(dst, ' ', stageLetters[e.Stage], ' ')
		dst = strconv.AppendUint(dst, uint64(e.PC), 16)
		if (e.Stage == StExec || e.Stage == StWaitCache) && e.Timer > 0 {
			dst = strconv.AppendUint(append(dst, ':'), uint64(e.Timer), 10)
		}
	}
	return dst
}
