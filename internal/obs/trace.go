package obs

import (
	"bufio"
	"strconv"
	"time"
)

// Timebase selects the clock the span trace is stamped with.
type Timebase uint8

const (
	// TimebaseCycles stamps spans with the simulated cycle counter: the
	// trace is deterministic (byte-identical for a given program and
	// config) and fsvet-clean. One "microsecond" in the viewer is one
	// simulated cycle.
	TimebaseCycles Timebase = iota
	// TimebaseWall stamps spans with host microseconds since the run
	// began — for profiling where the host time goes. Wall traces
	// are inherently non-deterministic.
	TimebaseWall
)

// String returns the CLI spelling of the timebase.
func (t Timebase) String() string {
	if t == TimebaseWall {
		return "wall"
	}
	return "cycles"
}

// Span kind strings for Observer.RecordBegin: how the episode reached the
// detailed simulator. They name the record spans.
const (
	SpanRecord   = "record"   // ordinary miss: a fresh configuration
	SpanVerify   = "verify"   // shadow verification of a cached chain
	SpanDegraded = "degraded" // budget guard: detached detailed-only episode
	SpanResume   = "resume"   // re-driving a replay that stopped mid-episode
)

// traceMaxDepth bounds span nesting: run ⊃ record/replay/reclaim/snapshot
// spans need three levels; the rest is slack.
const traceMaxDepth = 16

// traceSpan is one open span on the sink's stack.
type traceSpan struct {
	name  string
	kind  string // names the event when set: record kind, reclaim or snapshot op
	start uint64 // timebase units
}

// spanSink is the Observer's span-trace sink: it writes a hierarchical
// trace of one simulation run in the Chrome trace-event JSON format,
// loadable in Perfetto or chrome://tracing. Spans follow the run's natural
// structure — run ⊃ record/replay episodes, reclaim, snapshot IO — with
// instant markers for quarantines and guard transitions. Like every sink it
// is confined to the simulation goroutine and single-use.
type spanSink struct {
	bw    *bufio.Writer
	tb    Timebase
	epoch time.Time // wall-timebase origin
	buf   []byte    // scratch for one event line
	stack [traceMaxDepth]traceSpan
	depth int
	over  int    // pushes dropped past traceMaxDepth
	n     uint64 // events written
}

func newSpanSink(bw *bufio.Writer, tb Timebase) *spanSink {
	return &spanSink{bw: bw, tb: tb, buf: make([]byte, 0, 256)}
}

// start opens the JSON array, names the viewer's process row and opens the
// run span.
func (t *spanSink) start(name string) {
	t.epoch = time.Now()  //fastsim:allow-wallclock: wall-timebase origin; cycle-timebase traces never read it
	t.bw.WriteString("[") //nolint:errcheck // sticky in the bufio.Writer; Observer.Close reports it
	t.meta("process_name", name)
	t.meta("thread_name", "sim")
	t.push("run", "", 0)
}

// ts converts a simulated-cycle stamp to the sink's timebase.
func (t *spanSink) ts(cycle uint64) uint64 {
	if t.tb == TimebaseWall {
		return uint64(time.Since(t.epoch).Microseconds()) //fastsim:allow-wallclock: the wall timebase is profiling-only and never selected by deterministic runs
	}
	return cycle
}

// end pops the innermost span and starts its complete ("X") event line,
// ending at ts (timebase units), in category cat and named by the span's
// kind when it has one; the caller appends args and calls argEnd. It
// reports false, writing nothing, when the matching push was dropped by
// overflow or there is no open span.
func (t *spanSink) end(ts uint64, cat string) bool {
	sp, ok := t.pop()
	if !ok {
		return false
	}
	name := sp.name
	if sp.kind != "" {
		name = sp.kind
	}
	t.begin("X", name, cat, sp.start, ts-sp.start)
	return true
}

// close terminates the JSON array if start opened one. Open spans (error
// paths) are discarded, so the trace stays well-formed.
func (t *spanSink) close() {
	if t.n > 0 {
		t.bw.WriteString("\n]\n") //nolint:errcheck // sticky in the bufio.Writer; Observer.Close reports it
	}
}

// --- encoding; hand-rolled appends so an enabled span sink stays cheap ---

func (t *spanSink) push(name, kind string, cycle uint64) {
	if t.depth >= traceMaxDepth {
		t.over++
		return
	}
	t.stack[t.depth] = traceSpan{name: name, kind: kind, start: t.ts(cycle)}
	t.depth++
}

func (t *spanSink) pop() (traceSpan, bool) {
	if t.over > 0 {
		// The matching push was dropped by overflow; balance it.
		t.over--
		return traceSpan{}, false
	}
	if t.depth == 0 {
		return traceSpan{}, false
	}
	t.depth--
	return t.stack[t.depth], true
}

// begin starts one complete ("X") event line: everything up to and including
// `"args":{`. kind doubles as the event name when the span carries one.
func (t *spanSink) begin(ph, name, cat string, ts, dur uint64) {
	b := t.sep()
	b = append(b, `{"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","pid":1,"tid":1,"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"cat":"`...)
	b = append(b, cat...)
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendUint(b, dur, 10)
	b = append(b, `,"args":{`...)
	t.buf = b
}

// instant starts an "i" (instant) event line up to `"args":{`.
func (t *spanSink) instant(name, cat string, ts uint64) {
	b := t.sep()
	b = append(b, `{"ph":"i","s":"t","pid":1,"tid":1,"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"cat":"`...)
	b = append(b, cat...)
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	b = append(b, `,"args":{`...)
	t.buf = b
}

// counter emits a complete "C" (counter) event.
func (t *spanSink) counter(name string, ts uint64, v int64) {
	b := t.sep()
	b = append(b, `{"ph":"C","pid":1,"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	b = append(b, `,"args":{"value":`...)
	b = strconv.AppendInt(b, v, 10)
	b = append(b, `}}`...)
	t.buf = b
	t.flushLine()
}

// meta emits a metadata ("M") event naming the process or thread row.
func (t *spanSink) meta(key, val string) {
	b := t.sep()
	b = append(b, `{"ph":"M","pid":1,"tid":1,"name":"`...)
	b = append(b, key...)
	b = append(b, `","args":{"name":`...)
	b = appendJSONString(b, val)
	b = append(b, `}}`...)
	t.buf = b
	t.flushLine()
}

// sep returns the scratch buffer primed with the inter-event separator.
func (t *spanSink) sep() []byte {
	b := t.buf[:0]
	if t.n > 0 {
		b = append(b, ',')
	}
	b = append(b, '\n')
	return b
}

func (t *spanSink) argU(key string, v uint64) {
	b := t.argKey(key)
	t.buf = strconv.AppendUint(b, v, 10)
}

func (t *spanSink) argI(key string, v int64) {
	b := t.argKey(key)
	t.buf = strconv.AppendInt(b, v, 10)
}

func (t *spanSink) argS(key, v string) {
	b := t.argKey(key)
	t.buf = appendJSONString(b, v)
}

// argKey appends `,"key":` (the comma only after a previous arg).
func (t *spanSink) argKey(key string) []byte {
	b := t.buf
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return b
}

// argEnd closes the args object and the event, and writes the line out.
func (t *spanSink) argEnd() {
	t.buf = append(t.buf, `}}`...)
	t.flushLine()
}

func (t *spanSink) flushLine() {
	t.n++
	t.bw.Write(t.buf) //nolint:errcheck // sticky in the bufio.Writer; Observer.Close reports it
	t.buf = t.buf[:0]
}

// appendJSONString appends s as a JSON string literal. Span names are
// static, but quarantine reasons interpolate diagnostic values, so quotes,
// backslashes and control bytes are escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
