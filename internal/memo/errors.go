package memo

import (
	"errors"
	"fmt"
)

// ErrEngineFault is the sentinel matched (errors.Is) by every EngineFault:
// a panic inside the memoization engine — a runtime error or an injected
// allocation failure — caught by the episode-boundary isolation in Run and
// converted into a typed error instead of crashing the caller.
var ErrEngineFault = errors.New("memo: engine fault")

// EngineFault carries the context of an isolated engine panic: the
// fingerprint (hash) of the configuration being processed when it fired,
// the simulated cycle, and the panic message. Deliberate panics with
// established handling — core's run errors and uarch.Desync — are not
// converted; they propagate to core's own recover.
type EngineFault struct {
	Fingerprint uint64 // hash of the episode's configuration key
	Cycle       uint64 // simulated cycle at the fault
	Cause       string // the recovered panic message
	// CauseErr is the recovered panic value when it was an error (an
	// injected faultinject.Failure, a runtime.Error); the fault unwraps to
	// it, so errors.Is can still tell an injected fault from an organic
	// one.
	CauseErr error
}

func (f *EngineFault) Error() string {
	return fmt.Sprintf("memo: engine fault at cycle %d (config %016x): %s", f.Cycle, f.Fingerprint, f.Cause)
}

// Is makes errors.Is(f, ErrEngineFault) true.
func (f *EngineFault) Is(target error) bool { return target == ErrEngineFault }

// Unwrap exposes the original panic error for errors.Is/As.
func (f *EngineFault) Unwrap() error { return f.CauseErr }
