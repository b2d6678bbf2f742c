// Package obshook self-tests the obshook analyzer's call-site rules against
// the real observability layer: unguarded hook calls must pass only cheap,
// allocation-free arguments.
package obshook

import "fastsim/internal/obs"

type core struct {
	o     *obs.Observer
	cycle uint64
	insts int64
}

// tick passes selectors through an unguarded nil-safe hook: accepted.
func (c *core) tick() {
	c.o.Tick(c.cycle)
}

// conversions are free: accepted.
func (c *core) record(cycles uint32) {
	c.o.RecordEnd(c.cycle, uint64(cycles), c.insts)
}

func expensive() uint64 { return 42 }

// badCall does arbitrary work computing the argument even when c.o is nil.
func (c *core) badCall() {
	c.o.Finish(expensive()) // want "evaluated .and may allocate. even when the observer is disabled"
}

// badClosure allocates on every call.
func (c *core) badClosure() {
	c.o.Begin("p", func() uint64 { return c.cycle }) // want "closure passed to Observer hook Begin"
}

// guarded computes freely inside a nil check: accepted.
func (c *core) guarded() {
	if c.o != nil {
		c.o.Begin("p", func() uint64 { return c.cycle })
		c.o.Finish(expensive())
	}
}

// earlyReturn establishes the guard for the rest of the function: accepted.
func (c *core) earlyReturn() {
	if c.o == nil {
		return
	}
	c.o.Finish(expensive())
}

// begin passes identifiers and selectors through an unguarded nil-safe
// hook: accepted.
func (c *core) begin(kind string) {
	c.o.RecordBegin(kind, c.cycle)
}

func kindOf(verify bool) string {
	if verify {
		return "verify"
	}
	return "record"
}

// badKind computes the kind on every call, observer attached or not.
func (c *core) badKind(verify bool) {
	c.o.RecordBegin(kindOf(verify), c.cycle) // want "argument kindOf.verify. to Observer hook RecordBegin is evaluated"
}

// badConcat builds a string on every call.
func (c *core) badConcat(op string) {
	c.o.ReclaimBegin("memo."+op, c.cycle, 0) // want "to Observer hook ReclaimBegin is evaluated"
}

// guardedKind computes freely inside a nil check: accepted.
func (c *core) guardedKind(verify bool) {
	if c.o != nil {
		c.o.RecordBegin(kindOf(verify), c.cycle)
	}
}
