package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// traceEvent is the decoded shape of one trace-event JSON object, enough to
// check what the tests care about.
type traceEvent struct {
	Ph   string                 `json:"ph"`
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	TS   uint64                 `json:"ts"`
	Dur  uint64                 `json:"dur"`
	Args map[string]interface{} `json:"args"`
}

func decodeTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var evs []traceEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	return evs
}

// spanObserver returns an Observer whose only sink is a span trace into buf,
// with the run already begun.
func spanObserver(buf *bytes.Buffer, tb Timebase, program string) *Observer {
	o := New(Options{SpanW: buf, Timebase: tb})
	o.Begin(program, nil)
	return o
}

// TestTracerSpans drives every span-bearing hook through one plausible run
// shape and checks the emitted events: valid JSON, correct nesting
// arithmetic, correct payloads.
func TestTracerSpans(t *testing.T) {
	var buf bytes.Buffer
	o := spanObserver(&buf, TimebaseCycles, "test run")

	o.SnapshotBegin("load", 0)
	o.SnapshotEnd(0, "load", 10, 40, 1234, "")
	o.RecordBegin(SpanRecord, 100)
	o.RecordEnd(150, 50, 42)
	o.ReplayBegin(150)
	o.ReplayEnd(900, 12, 300)
	o.Quarantine(905, `bad "chain"`, 17, 0xabc)
	o.Guard(910, "pressure", 1<<20)
	o.PActionLimit(920, 1<<20)
	o.ReclaimBegin(ReclaimGC, 920, 1<<20)
	o.PActionGC(930, false, 100, 50, 1<<19)
	o.ReclaimEnd(930, 1<<20, 1<<19)
	if err := o.Finish(1000); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	evs := decodeTrace(t, buf.Bytes())
	// 2 metadata + snapshot + record + replay + quarantine + guard +
	// reclaim + counter + run; limit and GC detail are events only.
	if len(evs) != 10 {
		t.Fatalf("%d events, want 10:\n%s", len(evs), buf.String())
	}

	byName := map[string]traceEvent{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	if e := byName["process_name"]; e.Ph != "M" || e.Args["name"] != "fastsim test run" {
		t.Fatalf("process_name = %+v", e)
	}
	if e := byName["load"]; e.Ph != "X" || e.Cat != "snapshot" || e.Args["configs"].(float64) != 10 {
		t.Fatalf("snapshot span = %+v", e)
	}
	if e := byName["record"]; e.TS != 100 || e.Dur != 50 || e.Args["insts"].(float64) != 42 {
		t.Fatalf("record span = %+v", e)
	}
	if e := byName["replay"]; e.TS != 150 || e.Dur != 750 || e.Args["actions"].(float64) != 300 {
		t.Fatalf("replay span = %+v", e)
	}
	if e := byName["quarantine"]; e.Ph != "i" || e.Args["reason"] != `bad "chain"` {
		t.Fatalf("quarantine instant = %+v", e)
	}
	if e := byName["guard"]; e.Args["level"] != "pressure" {
		t.Fatalf("guard instant = %+v", e)
	}
	if e := byName["gc"]; e.TS != 920 || e.Dur != 10 || e.Args["bytes_after"].(float64) != 1<<19 {
		t.Fatalf("reclaim span = %+v", e)
	}
	if e := byName["memo.bytes"]; e.Ph != "C" || e.Args["value"].(float64) != 1<<19 {
		t.Fatalf("counter = %+v", e)
	}
	if e := byName["run"]; e.TS != 0 || e.Dur != 1000 {
		t.Fatalf("run span = %+v", e)
	}
}

// TestTracerRecordKinds checks that the record span is named by how the
// episode reached the detailed simulator.
func TestTracerRecordKinds(t *testing.T) {
	var buf bytes.Buffer
	o := spanObserver(&buf, TimebaseCycles, "p")
	for _, kind := range []string{SpanRecord, SpanVerify, SpanDegraded, SpanResume} {
		o.RecordBegin(kind, 1)
		o.RecordEnd(2, 1, 1)
	}
	o.Close()
	evs := decodeTrace(t, buf.Bytes())
	var names []string
	for _, e := range evs {
		if e.Ph == "X" {
			names = append(names, e.Name)
		}
	}
	want := []string{"record", "verify", "degraded", "resume"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("record span names = %v, want %v", names, want)
	}
}

// TestNilTracerZeroAlloc proves the tracing-off fast path on an enabled
// Observer: with no span sink (here only a sampler that never fires), every
// span-bearing hook performs zero allocations.
func TestNilTracerZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{SampleW: &buf, SampleInterval: 1 << 40})
	o.Begin("p", nil)
	if avg := testing.AllocsPerRun(1000, func() {
		o.RecordBegin(SpanRecord, 1)
		o.RecordEnd(2, 1, 1)
		o.ReplayBegin(2)
		o.ReplayEnd(3, 1, 1)
		o.ReclaimBegin(ReclaimGC, 3, 1)
		o.ReclaimEnd(4, 1, 0)
		o.SnapshotBegin("load", 0)
		o.SnapshotEnd(0, "load", 0, 0, 0, "")
		o.Quarantine(4, "r", 1, 0)
		o.Guard(4, "normal", 0)
	}); avg != 0 {
		t.Fatalf("span hooks without a span sink allocate %.1f per run, want 0", avg)
	}
}

// TestEnabledTracerSteadyStateZeroAlloc: once the scratch buffer has
// grown to its working size, the span sink's episode hooks do not allocate
// — the encoder appends into a reused buffer.
func TestEnabledTracerSteadyStateZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	o := spanObserver(&buf, TimebaseCycles, "p")
	cycle := uint64(0)
	// Warm up the scratch buffer and bufio writer.
	for i := 0; i < 64; i++ {
		cycle++
		o.RecordBegin(SpanRecord, cycle)
		o.RecordEnd(cycle+1, 1, 1)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		cycle++
		o.RecordBegin(SpanRecord, cycle)
		o.RecordEnd(cycle+1, 1, 1)
		o.ReplayBegin(cycle + 1)
		o.ReplayEnd(cycle+2, 3, 9)
	}); avg != 0 {
		t.Fatalf("enabled span-sink episode hooks allocate %.1f per run, want 0", avg)
	}
}

// TestTracerDepthOverflow: pushes past the depth bound are dropped and their
// pops balanced, so deeper spans neither corrupt the stack nor unbalance
// the enclosing run span.
func TestTracerDepthOverflow(t *testing.T) {
	var buf bytes.Buffer
	o := spanObserver(&buf, TimebaseCycles, "p")
	const deep = traceMaxDepth + 8
	for i := 0; i < deep; i++ {
		o.RecordBegin(SpanRecord, uint64(i))
	}
	for i := 0; i < deep; i++ {
		o.RecordEnd(uint64(deep+i), 1, 1)
	}
	o.Finish(999)
	evs := decodeTrace(t, buf.Bytes())
	spans, runs := 0, 0
	for _, e := range evs {
		if e.Ph == "X" {
			spans++
		}
		if e.Name == "run" {
			runs++
		}
	}
	if spans != traceMaxDepth || runs != 1 {
		t.Fatalf("%d spans (%d run) written, want %d (1 run): overflow must drop, not corrupt",
			spans, runs, traceMaxDepth)
	}
}

// TestTracerOpenSpansDiscardedOnClose: an error path that leaves spans open
// must still produce well-formed JSON.
func TestTracerOpenSpansDiscardedOnClose(t *testing.T) {
	var buf bytes.Buffer
	o := spanObserver(&buf, TimebaseCycles, "p")
	o.RecordBegin(SpanRecord, 5)
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := o.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	decodeTrace(t, buf.Bytes())
}

// TestTracerCycleTimebaseDeterministic: two identical hook sequences produce
// byte-identical cycle-timebase traces.
func TestTracerCycleTimebaseDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		o := spanObserver(&buf, TimebaseCycles, "det")
		for c := uint64(1); c < 50; c++ {
			o.RecordBegin(SpanVerify, c*10)
			o.RecordEnd(c*10+5, 5, int64(c))
			o.ReplayBegin(c*10 + 5)
			o.ReplayEnd(c*10+9, 2, 7)
		}
		o.Finish(500)
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("cycle-timebase traces differ between identical runs")
	}
}

// TestTracerWallTimebase: wall traces are valid JSON with monotone
// non-negative stamps (values are inherently nondeterministic).
func TestTracerWallTimebase(t *testing.T) {
	var buf bytes.Buffer
	o := spanObserver(&buf, TimebaseWall, "p")
	o.RecordBegin(SpanRecord, 100)
	o.RecordEnd(200, 100, 10)
	o.Finish(300)
	for _, e := range decodeTrace(t, buf.Bytes()) {
		if e.Ph == "X" && e.TS+e.Dur > uint64(1)<<40 {
			t.Fatalf("wall stamp implausible: %+v", e)
		}
	}
	if TimebaseWall.String() != "wall" || TimebaseCycles.String() != "cycles" {
		t.Fatal("Timebase.String spelling changed")
	}
}

// TestTracerStringEscaping: program names and interpolated reasons with
// JSON-hostile bytes stay valid.
func TestTracerStringEscaping(t *testing.T) {
	var buf bytes.Buffer
	o := spanObserver(&buf, TimebaseCycles, "a\\b\"c\n")
	o.Quarantine(1, "line1\nline2\ttab\\quote\"", 3, 0)
	o.Close()
	evs := decodeTrace(t, buf.Bytes())
	found := false
	for _, e := range evs {
		switch e.Name {
		case "process_name":
			if e.Args["name"] != "fastsim a\\b\"c\n" {
				t.Fatalf("process name round-trip = %q", e.Args["name"])
			}
		case "quarantine":
			found = true
			if e.Args["reason"] != "line1\nline2\ttab\\quote\"" {
				t.Fatalf("reason round-trip = %q", e.Args["reason"])
			}
		}
	}
	if !found {
		t.Fatal("quarantine instant missing")
	}
}
