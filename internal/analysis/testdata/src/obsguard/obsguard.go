// Package obs mimics the observability layer's hook shape to self-test the
// obshook analyzer's implementation-side rules: exported hooks on *Observer
// must use a pointer receiver and begin with a nil-receiver guard. The package is named obs so the analyzer treats it as the real one.
package obs

type sink struct{ n uint64 }

func (s *sink) emit() { s.n++ }

// Observer is the fixture's hook receiver.
type Observer struct {
	events *sink
	closed bool
}

// Good begins with the canonical guard: accepted.
func (o *Observer) Good(cycle uint64) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit()
	_ = cycle
}

// GoodCompound guards with a disjunction whose leftmost term is the nil
// check: accepted.
func (o *Observer) GoodCompound() {
	if o == nil || o.closed {
		return
	}
	o.closed = true
}

// BadNoGuard dereferences the receiver with no guard at all.
func (o *Observer) BadNoGuard() { // want "must begin with a nil-receiver guard"
	o.events.emit()
}

// BadLateGuard checks only after other work.
func (o *Observer) BadLateGuard() { // want "must begin with a nil-receiver guard"
	n := 1
	_ = n
	if o == nil {
		return
	}
	o.events.emit()
}

// BadOrder puts the nil check after a dereferencing disjunct.
func (o *Observer) BadOrder() { // want "must begin with a nil-receiver guard"
	if o.closed || o == nil {
		return
	}
	o.events.emit()
}

// BadValue cannot be invoked through a nil *Observer without panicking.
func (o Observer) BadValue() uint64 { // want "has a value receiver"
	return o.events.n
}

// unexported helpers are outside the hook contract: accepted.
func (o *Observer) internal() { o.events.emit() }

// Begin takes a callback, like the real Observer.Begin: accepted (guarded).
func (o *Observer) Begin(f func() uint64) {
	if o == nil {
		return
	}
	o.events.n = f()
}

// Emit boxes its argument, giving the call-site rules an interface target.
func (o *Observer) Emit(v any) {
	if o == nil {
		return
	}
	_ = v
}

// --- call sites within the fixture ---

type engine struct {
	obs   *Observer
	insts uint64
}

// hot passes plain values through an unguarded nil-safe hook: accepted.
func (e *engine) hot(cycle uint64) {
	e.obs.Good(cycle)
}

// badClosure allocates a closure on every call, observer enabled or not.
func (e *engine) badClosure() {
	e.obs.Begin(func() uint64 { return e.insts }) // want "closure passed to Observer hook Begin"
}

// guardedClosure hoists the allocation behind a nil check: accepted.
func (e *engine) guardedClosure() {
	if e.obs != nil {
		e.obs.Begin(func() uint64 { return e.insts })
	}
}

// earlyReturnGuard establishes the guard with an early return: accepted.
func (e *engine) earlyReturnGuard() {
	if e.obs == nil {
		return
	}
	e.obs.Begin(func() uint64 { return e.insts })
}

// badBox boxes a uint64 into any on every call.
func (e *engine) badBox() {
	e.obs.Emit(e.insts) // want "implicitly converted to an interface"
}

// guardedBox is fine: the conversion only happens when enabled.
func (e *engine) guardedBox() {
	if e.obs != nil {
		e.obs.Emit(e.insts)
	}
}
