package core

import (
	"fmt"

	"fastsim/internal/bpred"
	"fastsim/internal/cachesim"
	"fastsim/internal/direct"
	"fastsim/internal/obs"
	"fastsim/internal/program"
	"fastsim/internal/uarch"
)

// runError is the panic payload used to surface environment errors (e.g. a
// target program jumping to garbage on the committed path) out of the
// pipeline's call tree, which has no error returns on its hot path. Run
// recovers it into an ordinary error.
type runError struct{ err error }

// driver connects the µ-architecture simulator to direct execution and the
// cache simulator. It implements uarch.Env (and memo.Driver): control
// outcomes come from the direct-execution record stream, loads and stores
// go to the cache simulator, and retirement pops the consumed queue
// prefixes. All of its state is "external" in the memoization sense —
// continuous across detailed and fast-forwarded simulation.
type driver struct {
	prog  *program.Program
	eng   *direct.Engine
	pred  bpred.Predictor
	cache *cachesim.Cache

	recCursor int // next control record to hand to fetch
	recHead   int // control records retired
	lqHead    int // lQ entries retired
	sqHead    int // sQ entries retired

	retiredInsts  uint64
	retiredLoads  uint64
	retiredStores uint64
	halted        bool

	// obs is nil unless an Observer is attached; every hook through it is
	// nil-receiver safe. The driver emits the exactly-once events
	// (rollback, checkpoint stall): its methods run once per real
	// interaction whether the caller is the detailed pipeline, the
	// recorder or the replayer — never during scripted re-drives.
	obs *obs.Observer
}

// registerMetrics publishes the retirement counters and fans out to the
// components the driver owns.
func (d *driver) registerMetrics(r *obs.Registry) {
	r.Counter(obs.MetricRetiredInsts, &d.retiredInsts)
	r.Counter(obs.MetricRetiredLoads, &d.retiredLoads)
	r.Counter(obs.MetricRetiredStores, &d.retiredStores)
	d.cache.RegisterMetrics(r)
	d.eng.RegisterMetrics(r)
	d.pred.RegisterMetrics(r)
}

func newDriver(prog *program.Program, cacheCfg cachesim.Config, bp BPredConfig) *driver {
	pred := bp.build()
	return &driver{
		prog:  prog,
		eng:   direct.New(prog, pred),
		pred:  pred,
		cache: cachesim.New(cacheCfg),
	}
}

func (d *driver) fail(format string, args ...interface{}) {
	panic(runError{fmt.Errorf(format, args...)})
}

// NextOutcome hands fetch the next control record, running direct execution
// forward when the record stream is exhausted ("return to direct-execution").
func (d *driver) NextOutcome() uarch.Outcome {
	if d.recCursor >= d.eng.NumRecs() {
		if _, err := d.eng.RunToNextControlPoint(); err != nil {
			d.fail("core: direct execution: %w", err)
		}
	}
	rec := d.eng.Rec(d.recCursor)
	if rec.Kind == direct.KindStall {
		d.obs.CheckpointStall()
	}
	out := uarch.Outcome{
		Kind:         rec.Kind,
		PC:           rec.PC,
		Taken:        rec.Taken,
		Mispredicted: rec.Mispredicted,
		Target:       rec.Target,
		RecIdx:       d.recCursor,
	}
	d.recCursor++
	return out
}

// advance runs direct execution to its next control point, because the
// pipeline is about to touch queue entry want, which does not exist yet:
// fetch can run ahead of direct execution through straight-line code.
func (d *driver) advance(want int) {
	if d.eng.Halted {
		d.fail("core: pipeline references queue entry %d past program end", want)
	}
	if _, err := d.eng.RunToNextControlPoint(); err != nil {
		d.fail("core: direct execution: %w", err)
	}
}

func (d *driver) IssueLoad(lqIdx int, now uint64) int {
	for lqIdx >= d.eng.NumLoads() {
		d.advance(lqIdx)
	}
	return d.cache.LoadRequest(lqIdx, d.eng.Load(lqIdx).Addr, now)
}

func (d *driver) PollLoad(lqIdx int, now uint64) (bool, int) { return d.cache.LoadPoll(lqIdx, now) }

func (d *driver) CancelLoad(lqIdx int) { d.cache.Cancel(lqIdx) }

func (d *driver) IssueStore(sqIdx int, now uint64) {
	for sqIdx >= d.eng.NumStores() {
		d.advance(sqIdx)
	}
	d.cache.Store(d.eng.Store(sqIdx).Addr, now)
}

func (d *driver) Rollback(recIdx int) (int, int) {
	rec := d.eng.Rec(recIdx)
	if err := d.eng.Rollback(recIdx); err != nil {
		d.fail("core: rollback: %w", err)
	}
	d.recCursor = recIdx + 1
	d.obs.Rollback(recIdx)
	return rec.LQLen, rec.SQLen
}

// RetirePop advances queue heads after in-order retirement and releases the
// consumed queue prefixes back to the direct-execution engine.
func (d *driver) RetirePop(insts, loads, stores, recs int) {
	d.retiredInsts += uint64(insts)
	d.retiredLoads += uint64(loads)
	d.retiredStores += uint64(stores)
	d.lqHead += loads
	d.sqHead += stores
	d.recHead += recs
	d.eng.Trim(d.recHead, d.lqHead, d.sqHead)
}

func (d *driver) HaltRetired() { d.halted = true }

func (d *driver) Heads() uarch.Heads {
	return uarch.Heads{Rec: d.recHead, LQ: d.lqHead, SQ: d.sqHead}
}
