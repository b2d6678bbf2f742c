// Package obs is the simulator-wide observability layer: a metrics
// registry that every component registers its counters, gauges and
// histograms into; a cycle-interval sampler emitting a JSONL time-series
// row every N simulated cycles; a structured JSONL event stream for the
// discrete occurrences worth knowing about (episode recording and replay,
// p-action cache flushes and collections, rollbacks, checkpoint stalls);
// a hierarchical span trace in the Chrome trace-event format; a
// sim-outorder-style pipetrace of detailed cycles; and a wall-clock
// progress heartbeat for long runs. Each occurrence is reported
// through one Observer hook, which fans out to whichever sinks are attached.
//
// Observability is strictly read-only: it never feeds anything back into
// the simulation, so a run with an Observer attached produces bit-identical
// statistics to an unobserved run — on both FastSim and SlowSim. Under
// memoization, fast-forwarded spans are never re-simulated, so the sampler
// observes at episode boundaries: rows are emitted at the first observation
// point at or after each interval boundary, which during replay is the end
// of the episode that crossed it.
//
// Every hook is safe to call on a nil *Observer and costs exactly one
// pointer check in that case, so components call hooks unconditionally on
// their hot paths.
package obs

import (
	"bufio"
	"io"
	"time"
)

// DefaultSampleInterval is the sampling period, in simulated cycles, used
// when Options.SampleInterval is zero.
const DefaultSampleInterval = 100_000

// Options configures an Observer. Any writer may be nil to disable that
// output; the metrics registry is always available.
type Options struct {
	// SampleW receives one JSONL Row per SampleInterval simulated cycles.
	SampleW io.Writer
	// SampleInterval is the sampling period in simulated cycles
	// (0 selects DefaultSampleInterval).
	SampleInterval uint64

	// EventW receives the structured JSONL event stream (see Event).
	EventW io.Writer

	// SpanW receives a hierarchical span trace of the run (run ⊃
	// record/replay episodes, reclaims, snapshot IO; quarantine and guard
	// instants) as Chrome trace-event JSON, stamped in Timebase units. The
	// process row is labelled "fastsim <program>".
	SpanW    io.Writer
	Timebase Timebase

	// PipetraceW receives the pipetrace: one line per detailed cycle (every
	// cycle under SlowSim) and one marker line per fast-forward chain that
	// replayed at least one action.
	PipetraceW io.Writer

	// ProgressW receives a human-readable heartbeat line every
	// ProgressEvery of wall-clock time (0 selects one second).
	ProgressW     io.Writer
	ProgressEvery time.Duration

	// Publish, when non-nil, receives an immutable registry snapshot every
	// PublishInterval simulated cycles (0 selects DefaultSampleInterval) —
	// the hand-off point the debug server reads. Like the heartbeat, the
	// reader side never touches the registry itself.
	Publish         *Published
	PublishInterval uint64
}

// Observer bundles the observability outputs of one simulation run. The
// zero-cost disabled state is a nil *Observer: every exported method is
// nil-receiver safe. An Observer is single-use — attach a fresh one to each
// run.
type Observer struct {
	reg     *Registry
	sampler *sampler
	events  *eventSink
	spans   *spanSink
	pipe    *pipetraceSink
	hb      *heartbeat

	pub         *Published
	pubInterval uint64
	pubNext     uint64
	pubSeq      uint64

	instsFn   func() uint64
	lastCycle uint64
	flushers  []*bufio.Writer
	closed    bool
	err       error // first write error of a buffered sink
}

// New returns an Observer with the requested outputs enabled.
func New(opt Options) *Observer {
	o := &Observer{reg: NewRegistry()}
	o.reg.Gauge(MetricCycle, func() float64 { return float64(o.lastCycle) })
	if opt.SampleW != nil {
		iv := opt.SampleInterval
		if iv == 0 {
			iv = DefaultSampleInterval
		}
		bw := bufio.NewWriter(opt.SampleW)
		o.flushers = append(o.flushers, bw)
		o.sampler = newSampler(bw, iv, o.reg)
	}
	if opt.EventW != nil {
		bw := bufio.NewWriter(opt.EventW)
		o.flushers = append(o.flushers, bw)
		o.events = newEventSink(bw)
	}
	if opt.SpanW != nil {
		bw := bufio.NewWriter(opt.SpanW)
		o.flushers = append(o.flushers, bw)
		o.spans = newSpanSink(bw, opt.Timebase)
	}
	if opt.PipetraceW != nil {
		bw := bufio.NewWriter(opt.PipetraceW)
		o.flushers = append(o.flushers, bw)
		o.pipe = &pipetraceSink{bw: bw}
	}
	if opt.ProgressW != nil {
		every := opt.ProgressEvery
		if every <= 0 {
			every = time.Second
		}
		o.hb = &heartbeat{w: opt.ProgressW, every: every}
	}
	if opt.Publish != nil {
		o.pub = opt.Publish
		o.pubInterval = opt.PublishInterval
		if o.pubInterval == 0 {
			o.pubInterval = DefaultSampleInterval
		}
	}
	return o
}

// Metrics returns the metrics registry (nil on a nil Observer).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Begin marks the start of a run of the named program: it opens the run
// span and starts the heartbeat goroutine. instsFn reports retired
// instructions and is called from the simulation goroutine only (the
// heartbeat reads a published copy).
func (o *Observer) Begin(program string, instsFn func() uint64) {
	if o == nil {
		return
	}
	o.instsFn = instsFn
	if o.spans != nil {
		o.spans.start("fastsim " + program)
	}
	if o.hb != nil {
		o.hb.start()
	}
}

// Tick is the per-observation-point hook: SlowSim calls it every cycle,
// FastSim at every episode boundary (both recorded and replayed). It
// publishes progress counters and emits a sampler row when the simulated
// cycle counter has crossed an interval boundary since the last row.
func (o *Observer) Tick(now uint64) {
	if o == nil {
		return
	}
	o.lastCycle = now
	if o.hb != nil {
		o.hb.cycles.Store(now)
		if o.instsFn != nil {
			o.hb.insts.Store(o.instsFn())
		}
	}
	if o.sampler != nil && now >= o.sampler.next {
		o.sampler.sample(now)
	}
	if o.pub != nil && now >= o.pubNext {
		o.publish(now)
	}
}

// Now returns the cycle counter at the most recent observation point.
// Events raised from hooks that do not carry a cycle number (rollback,
// checkpoint stall) are stamped with it.
func (o *Observer) Now() uint64 {
	if o == nil {
		return 0
	}
	return o.lastCycle
}

// Rows returns the number of sampler rows emitted so far.
func (o *Observer) Rows() uint64 {
	if o == nil || o.sampler == nil {
		return 0
	}
	return o.sampler.rows
}

// Events returns the number of events emitted so far.
func (o *Observer) Events() uint64 {
	if o == nil || o.events == nil {
		return 0
	}
	return o.events.n
}

// Finish marks the successful end of a run at the final cycle count: the
// run span closes, a last sampler row captures the tail interval, then the
// Observer closes. It returns Close's error.
func (o *Observer) Finish(now uint64) error {
	if o == nil {
		return nil
	}
	o.lastCycle = now
	if s := o.spans; s != nil && s.end(s.ts(now), "run") {
		s.argEnd()
	}
	if o.sampler != nil && (o.sampler.rows == 0 || now > o.sampler.last) {
		o.sampler.sample(now)
	}
	if o.pub != nil {
		o.publish(now)
	}
	return o.Close()
}

// Close stops the heartbeat goroutine, terminates the span trace and
// flushes buffered output. It returns the first write error of the sample,
// event, span and pipetrace sinks, so a truncated stream is never silent; the
// heartbeat stays best-effort. Close is idempotent (later calls return the
// same error) and safe on error paths that never reached Finish.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	if o.closed {
		return o.err
	}
	o.closed = true
	if o.hb != nil {
		o.hb.stop()
	}
	if o.spans != nil {
		o.spans.close()
	}
	for _, bw := range o.flushers {
		if err := bw.Flush(); err != nil && o.err == nil {
			o.err = err
		}
	}
	return o.err
}
