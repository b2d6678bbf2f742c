package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"fastsim/internal/stats"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 7
	r.Counter(MetricRetiredInsts, &c)
	if got := r.Value(MetricRetiredInsts); got != 7 {
		t.Fatalf("counter read %v, want 7", got)
	}
	c = 12
	if got := r.Value(MetricRetiredInsts); got != 12 {
		t.Fatalf("counter read %v after increment, want 12", got)
	}
	if got := r.Value("no.such.metric"); got != 0 {
		t.Fatalf("unregistered metric read %v, want 0", got)
	}

	// Gauge re-registration overwrites (pipelines are rebuilt under
	// memoization and must repoint their gauges).
	r.Gauge(MetricIQDepth, func() float64 { return 1 })
	r.Gauge(MetricIQDepth, func() float64 { return 2 })
	if got := r.Value(MetricIQDepth); got != 2 {
		t.Fatalf("re-registered gauge read %v, want 2", got)
	}

	var h stats.Histogram
	h.Add(4)
	r.Histogram(MetricLoadLatency, &h)
	if r.Hist(MetricLoadLatency) != &h {
		t.Fatal("histogram not registered by reference")
	}
	if r.Hist("no.such.hist") != nil {
		t.Fatal("unregistered histogram not nil")
	}

	names := r.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if snap := r.Snapshot(); snap[MetricIQDepth] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	if !strings.Contains(r.Render(), MetricLoadLatency) {
		t.Fatal("Render missing histogram line")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Gauge("g", func() float64 { return 1 })
	r.Counter("c", new(uint64))
	r.Histogram("h", &stats.Histogram{})
	if r.Value("g") != 0 || r.Hist("h") != nil || r.Names() != nil || r.Snapshot() != nil {
		t.Fatal("nil registry must read as empty")
	}
}

// TestSamplerRowCount checks the per-cycle (SlowSim) schedule: a run of C
// cycles ticked every cycle emits exactly ceil(C/interval) rows.
func TestSamplerRowCount(t *testing.T) {
	for _, tc := range []struct {
		cycles, interval, want uint64
	}{
		{1000, 100, 10}, // ends exactly on a boundary
		{1050, 100, 11}, // partial tail row from Finish
		{99, 100, 1},    // shorter than one interval: one final row
		{100, 100, 1},
		{101, 100, 2},
	} {
		var buf strings.Builder
		o := New(Options{SampleW: &buf, SampleInterval: tc.interval})
		o.Begin("test", func() uint64 { return 0 })
		for now := uint64(1); now <= tc.cycles; now++ {
			o.Tick(now)
		}
		o.Finish(tc.cycles)
		if o.Rows() != tc.want {
			t.Errorf("C=%d interval=%d: %d rows, want %d",
				tc.cycles, tc.interval, o.Rows(), tc.want)
		}
		if n := strings.Count(buf.String(), "\n"); uint64(n) != tc.want {
			t.Errorf("C=%d interval=%d: %d lines written, want %d",
				tc.cycles, tc.interval, n, tc.want)
		}
	}
}

// TestSamplerReplayJumps checks the episode-boundary (FastSim) schedule: an
// observation point that jumps several interval boundaries yields a single
// row, scheduled past the point actually observed.
func TestSamplerReplayJumps(t *testing.T) {
	var buf strings.Builder
	o := New(Options{SampleW: &buf, SampleInterval: 100})
	o.Tick(50)     // before the first boundary: no row
	o.Tick(250)    // crossed 100 (and 200): one row
	o.Tick(260)    // next is 300: no row
	o.Tick(999)    // crossed 300..900: one row
	o.Finish(1000) // past the last row: final row
	if o.Rows() != 3 {
		t.Fatalf("%d rows, want 3; output:\n%s", o.Rows(), buf.String())
	}

	dec := json.NewDecoder(strings.NewReader(buf.String()))
	var cycles []uint64
	for dec.More() {
		var row Row
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("row decode: %v", err)
		}
		cycles = append(cycles, row.Cycle)
	}
	want := []uint64{250, 999, 1000}
	for i := range want {
		if cycles[i] != want[i] {
			t.Fatalf("row cycles = %v, want %v", cycles, want)
		}
	}
}

// TestSamplerRowValues drives registered counters by hand and checks the
// cumulative vs interval arithmetic of the emitted rows.
func TestSamplerRowValues(t *testing.T) {
	var buf strings.Builder
	o := New(Options{SampleW: &buf, SampleInterval: 100})
	var insts, l1h, l1m uint64
	r := o.Metrics()
	r.Counter(MetricRetiredInsts, &insts)
	r.Counter(MetricL1Hits, &l1h)
	r.Counter(MetricL1Misses, &l1m)

	insts, l1h, l1m = 80, 9, 1
	o.Tick(100)
	insts, l1h, l1m = 120, 12, 4
	o.Tick(200)
	o.Finish(200)

	dec := json.NewDecoder(strings.NewReader(buf.String()))
	var rows []Row
	for dec.More() {
		var row Row
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("row decode: %v", err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	r0, r1 := rows[0], rows[1]
	if r0.Insts != 80 || r0.IPC != 0.8 || r0.IntervalIPC != 0.8 || r0.L1HitRate != 0.9 {
		t.Fatalf("row 0 = %+v", r0)
	}
	if r1.Insts != 120 || r1.IPC != 0.6 || r1.IntervalIPC != 0.4 {
		t.Fatalf("row 1 = %+v", r1)
	}
	// Interval L1 rate: (12-9) hits of (12-9)+(4-1) accesses = 0.5.
	if r1.L1HitRate != 0.5 {
		t.Fatalf("row 1 interval L1 rate = %v, want 0.5", r1.L1HitRate)
	}
	// No memo counters registered: everything is "detailed".
	if r1.DetailedFrac != 1 || r1.IntervalDetailedFrac != 1 {
		t.Fatalf("row 1 detailed fractions = %v/%v, want 1/1",
			r1.DetailedFrac, r1.IntervalDetailedFrac)
	}
}

func TestEventStreamRoundTrip(t *testing.T) {
	var buf strings.Builder
	o := New(Options{EventW: &buf})
	o.RecordBegin(SpanRecord, 10)
	o.RecordEnd(25, 15, 12)
	o.ReplayBegin(25)
	o.ReplayEnd(400, 30, 2200)
	o.Tick(400)
	o.Rollback(7)
	o.CheckpointStall()
	o.PActionLimit(400, 1<<20)
	o.ReclaimBegin(ReclaimFlush, 400, 1<<20)
	o.ReclaimEnd(400, 1<<20, 0)
	o.ReclaimBegin(ReclaimMinorGC, 400, 1<<20)
	o.PActionGC(400, true, 900, 300, 1<<19)
	o.ReclaimEnd(400, 1<<20, 1<<19)
	o.Close()

	if o.Events() != 9 {
		t.Fatalf("%d events, want 9", o.Events())
	}
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	var evs []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("event decode: %v", err)
		}
		evs = append(evs, e)
	}
	wantTypes := []string{
		EvRecordStart, EvRecordEnd, EvReplayStart, EvReplayEnd,
		EvRollback, EvCheckpointStall, EvPActionLimit, EvPActionFlush, EvPActionGC,
	}
	if len(evs) != len(wantTypes) {
		t.Fatalf("%d events decoded, want %d", len(evs), len(wantTypes))
	}
	for i, e := range evs {
		if e.Type != wantTypes[i] {
			t.Fatalf("event %d type %q, want %q", i, e.Type, wantTypes[i])
		}
	}
	if e := evs[1]; e.Cycle != 25 || e.Cycles != 15 || e.Insts != 12 {
		t.Fatalf("record_end = %+v", e)
	}
	if e := evs[3]; e.Episodes != 30 || e.Actions != 2200 {
		t.Fatalf("replay_end = %+v", e)
	}
	// Rollback and stall are stamped with the last observation point.
	if e := evs[4]; e.Cycle != 400 || e.Rec != 7 {
		t.Fatalf("rollback = %+v", e)
	}
	if e := evs[8]; !e.Minor || e.Live != 900 || e.Survivors != 300 || e.BytesAfter != 1<<19 {
		t.Fatalf("paction_gc = %+v", e)
	}
}

// TestNilObserverZeroAlloc proves the disabled fast path: every hook on a
// nil *Observer performs zero allocations (it is one pointer check).
func TestNilObserverZeroAlloc(t *testing.T) {
	var o *Observer
	if avg := testing.AllocsPerRun(1000, func() {
		o.Begin("p", nil)
		o.Tick(123)
		o.RecordBegin(SpanRecord, 1)
		o.RecordEnd(2, 1, 1)
		o.ReplayBegin(2)
		o.ReplayEnd(3, 1, 1)
		o.Rollback(0)
		o.CheckpointStall()
		o.PActionLimit(3, 0)
		o.ReclaimBegin(ReclaimGC, 3, 0)
		o.PActionGC(3, false, 0, 0, 0)
		o.ReclaimEnd(4, 1, 0)
		o.SnapshotBegin("load", 0)
		o.SnapshotEnd(0, "load", 0, 0, 0, "")
		o.Quarantine(4, "r", 1, 0)
		o.Guard(4, "normal", 0)
		o.Shared(4, "publish", 0, 0, 0, 0)
		o.DetailedCycle(4, nil)
		o.Metrics().Value(MetricCycle)
		_ = o.Now()
		_ = o.Finish(5)
		_ = o.Close()
	}); avg != 0 {
		t.Fatalf("nil-observer hooks allocate %.1f per run, want 0", avg)
	}
}

// TestEnabledTickNoSampleZeroAlloc: even with a sampler attached, ticks that
// do not cross an interval boundary must not allocate.
func TestEnabledTickNoSampleZeroAlloc(t *testing.T) {
	var buf strings.Builder
	o := New(Options{SampleW: &buf, SampleInterval: 1 << 40})
	now := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		now++
		o.Tick(now)
	}); avg != 0 {
		t.Fatalf("non-sampling Tick allocates %.1f per run, want 0", avg)
	}
}

func TestFinishEmitsAtLeastOneRow(t *testing.T) {
	var buf strings.Builder
	o := New(Options{SampleW: &buf, SampleInterval: 1000})
	o.Finish(42) // run shorter than one interval
	if o.Rows() != 1 {
		t.Fatalf("%d rows, want 1", o.Rows())
	}
	var row Row
	if err := json.Unmarshal([]byte(buf.String()), &row); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if row.Cycle != 42 {
		t.Fatalf("final row cycle %d, want 42", row.Cycle)
	}
}

func TestCloseIdempotent(t *testing.T) {
	var buf strings.Builder
	o := New(Options{SampleW: &buf, EventW: &buf, ProgressW: &buf})
	o.Begin("test", func() uint64 { return 0 })
	o.Close()
	o.Close() // must not double-stop the heartbeat or panic
}

// failWriter rejects every write.
type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// TestCloseReportsWriteError: a buffered sink whose writer fails makes
// Finish and every later Close return the write error instead of dropping
// it, whichever sink failed.
func TestCloseReportsWriteError(t *testing.T) {
	boom := errors.New("disk full")
	for name, opt := range map[string]Options{
		"sample":    {SampleW: failWriter{boom}},
		"events":    {EventW: failWriter{boom}},
		"spans":     {SpanW: failWriter{boom}},
		"pipetrace": {PipetraceW: failWriter{boom}},
	} {
		o := New(opt)
		o.Begin("p", func() uint64 { return 0 })
		o.RecordBegin(SpanRecord, 1)
		o.RecordEnd(2, 1, 1)
		o.DetailedCycle(2, &fakePipeline{})
		if err := o.Finish(2); !errors.Is(err, boom) {
			t.Errorf("%s: Finish = %v, want %v", name, err, boom)
		}
		if err := o.Close(); !errors.Is(err, boom) {
			t.Errorf("%s: second Close = %v, want %v", name, err, boom)
		}
	}
}
