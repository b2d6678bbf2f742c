package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fastsim/internal/core"
	"fastsim/internal/faultinject"
	"fastsim/internal/program"
	"fastsim/internal/snapshot"
)

// blockSentinel is a MaxCycles value test stubs treat as "block until
// cancelled" — it is far above any real job's cycle count but still a
// valid bound, so a recovered server running the same spec for real just
// completes normally.
const blockSentinel = 999_999_999_999

// panicSentinel marks a job the test stub answers with a panic.
const panicSentinel = 888_888_888_888

// fastRetry is a no-sleep retry policy so tests never wait on backoff.
func fastRetry() snapshot.RetryPolicy {
	return snapshot.RetryPolicy{
		BaseDelay: time.Millisecond,
		MaxDelay:  2 * time.Millisecond,
		Sleep:     func(time.Duration) {},
	}
}

// newTestServer builds a server with test-friendly defaults and installs
// the sentinel-aware runSim stub (real simulation otherwise).
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.Retry.Sleep == nil {
		opts.Retry = fastRetry()
	}
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	if opts.runSim == nil {
		opts.runSim = stubRunSim
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
	return s
}

func stubRunSim(ctx context.Context, prog *program.Program, cfg core.Config) (*core.Result, error) {
	switch cfg.MaxCycles {
	case blockSentinel:
		<-ctx.Done()
		return nil, ctx.Err()
	case panicSentinel:
		panic("stub: deliberate worker panic")
	}
	return core.RunContext(ctx, prog, cfg)
}

func quickSpec() JobSpec { return JobSpec{Workload: "129.compress", Scale: 0.2} }

func blockSpec() JobSpec {
	return JobSpec{Workload: "129.compress", Scale: 0.2, MaxCycles: blockSentinel}
}

// waitState polls until the job reaches want (the queued→running edge has
// no channel to wait on).
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", j.ID, want, j.State())
}

func mustWait(t *testing.T, j *Job) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s did not finish: %v", j.ID, err)
	}
	return v
}

func TestJobLifecycleDone(t *testing.T) {
	s := newTestServer(t, Options{})
	job, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := mustWait(t, job)
	if v.State != StateDone || v.Code != "" {
		t.Fatalf("job = %+v", v)
	}
	if v.Digest == "" || v.Result == nil || v.Result.Insts == 0 || v.Result.Checksum == 0 {
		t.Fatalf("missing result: %+v", v)
	}
	if !v.Result.Memoized {
		t.Error("default spec should be FastSim")
	}
	st := s.Stats()
	if st.Accepted != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRetryTransientEngineFault: an injected allocation failure fails the
// first attempt with a typed engine fault; the server classifies it
// transient (the injection consumed its occurrence budget), retries under
// the deterministic backoff, and the job completes.
func TestRetryTransientEngineFault(t *testing.T) {
	s := newTestServer(t, Options{})
	spec := quickSpec()
	spec.Faults = []FaultSpec{{Site: "memo.alloc", Rate: 1, Times: 1}}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := mustWait(t, job)
	if v.State != StateDone {
		t.Fatalf("job = %+v", v)
	}
	if v.Attempt != 2 {
		t.Errorf("attempt = %d, want 2 (one retry)", v.Attempt)
	}
	if st := s.Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}

	// Cross-check bit-identity: the retried job's digest matches a clean
	// run of the same workload.
	clean, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	cv := mustWait(t, clean)
	if cv.Digest != v.Digest {
		t.Errorf("retried digest %s != clean digest %s", v.Digest, cv.Digest)
	}
}

// TestRetryExhaustedTyped: a fault that keeps firing exhausts the retry
// budget and surfaces as the typed engine-fault code — never a silent
// loss, never an untyped failure.
func TestRetryExhaustedTyped(t *testing.T) {
	s := newTestServer(t, Options{MaxRetries: 2})
	spec := quickSpec()
	spec.Faults = []FaultSpec{{Site: "memo.alloc", Rate: 1, Times: 100}}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := mustWait(t, job)
	if v.State != StateFailed || v.Code != CodeEngineFault {
		t.Fatalf("job = %+v, want failed/engine_fault", v)
	}
	if v.Attempt != 3 {
		t.Errorf("attempt = %d, want 3 (two retries)", v.Attempt)
	}
}

// TestPanicIsolation: a worker panic fails only its own job; neighbours
// complete and the server keeps accepting.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Options{})
	bad, err := s.Submit(JobSpec{Workload: "129.compress", Scale: 0.2, MaxCycles: panicSentinel})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	bv, gv := mustWait(t, bad), mustWait(t, good)
	if bv.State != StateFailed || bv.Code != CodeInternal || !strings.Contains(bv.Msg, "panic") {
		t.Fatalf("panicking job = %+v", bv)
	}
	if gv.State != StateDone {
		t.Fatalf("neighbour job = %+v", gv)
	}
	// The pool survived: a third job still runs.
	after, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if av := mustWait(t, after); av.State != StateDone {
		t.Fatalf("post-panic job = %+v", av)
	}
}

func TestCancelQueuedAndStates(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	blocker, err := s.Submit(blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	queued, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateQueued {
		t.Fatalf("state = %s, want queued", queued.State())
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	bv, qv := mustWait(t, blocker), mustWait(t, queued)
	if qv.State != StateCancelled || qv.Code != CodeCancelled {
		t.Fatalf("queued job = %+v", qv)
	}
	if bv.State != StateCancelled || bv.Code != CodeCancelled {
		t.Fatalf("running job = %+v", bv)
	}
	// Cancelling a finished job is a conflict; unknown ids are not found.
	if err := s.Cancel(queued.ID); Classify(err) != CodeConflict {
		t.Errorf("cancel finished: %v", err)
	}
	if err := s.Cancel("zzz"); Classify(err) != CodeNotFound {
		t.Errorf("cancel unknown: %v", err)
	}
}

// TestDeadline: a job deadline cancels the real simulation at an episode
// boundary and types the outcome.
func TestDeadline(t *testing.T) {
	s := newTestServer(t, Options{})
	job, err := s.Submit(JobSpec{Workload: "107.mgrid", Scale: 20, TimeoutMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	v := mustWait(t, job)
	if v.State != StateCancelled || v.Code != CodeDeadline {
		t.Fatalf("job = %+v, want cancelled/deadline", v)
	}
}

func TestDrainRejectsAndFinishes(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if v := mustWait(t, j); v.State != StateDone {
			t.Fatalf("job %s = %+v after drain", j.ID, v)
		}
	}
	if _, err := s.Submit(quickSpec()); Classify(err) != CodeDraining {
		t.Errorf("submit while draining: %v", err)
	}
	if !s.Stats().Draining {
		t.Error("stats not draining")
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	blocker, err := s.Submit(blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	if _, err := s.Submit(quickSpec()); err != nil {
		t.Fatalf("first queued submit: %v", err)
	}
	_, err = s.Submit(quickSpec())
	if Classify(err) != CodeQueueFull {
		t.Fatalf("err = %v, want queue_full", err)
	}
	var se *Error
	if !errors.As(err, &se) || !se.Code.Retryable() {
		t.Errorf("queue_full must be retryable: %v", err)
	}
	s.Cancel(blocker.ID) //nolint:errcheck // teardown
}

func TestAdmissionMemoryBudget(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, MemBudget: 100, DefaultJobBudget: 60})
	blocker, err := s.Submit(blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	if _, err := s.Submit(quickSpec()); Classify(err) != CodeMemoryBudget {
		t.Fatalf("err = %v, want memory_budget", err)
	}
	// A job with an explicit small budget still fits.
	small := quickSpec()
	small.MemoBudget = 30
	fits, err := s.Submit(small)
	if err != nil {
		t.Fatalf("small-budget submit: %v", err)
	}
	s.Cancel(blocker.ID) //nolint:errcheck // unblock
	if v := mustWait(t, fits); v.State != StateDone {
		t.Fatalf("small job = %+v", v)
	}
	// The blocker's release frees its charge.
	mustWait(t, blocker)
	if st := s.Stats(); st.MemInUse != 0 {
		t.Errorf("mem in use = %d after all jobs finished", st.MemInUse)
	}
}

func TestAcceptFaultSite(t *testing.T) {
	s := newTestServer(t, Options{
		Inject: faultinject.New(7, faultinject.Fault{Site: faultinject.SiteServerAccept, Rate: 1, Times: 1}),
	})
	_, err := s.Submit(quickSpec())
	if Classify(err) != CodeAcceptFault {
		t.Fatalf("err = %v, want accept_fault", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("accept fault should carry ErrInjected: %v", err)
	}
	// The budget fires once; the next submit is admitted.
	job, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v := mustWait(t, job); v.State != StateDone {
		t.Fatalf("job = %+v", v)
	}
}

// TestJournalWriteFaultRetry: transient journal-write faults within the
// retry budget are absorbed; beyond it, the submit fails typed and the
// job is NOT accepted (no half-admitted state).
func TestJournalWriteFaultRetry(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{
		JournalPath: filepath.Join(dir, "journal.jsonl"),
		MaxRetries:  2, // journal writes get 3 attempts
		Inject:      faultinject.New(7, faultinject.Fault{Site: faultinject.SiteJournalWrite, Rate: 1, Times: 2}),
	})
	job, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatalf("submit with 2 transient journal faults: %v", err)
	}
	if v := mustWait(t, job); v.State != StateDone {
		t.Fatalf("job = %+v", v)
	}

	dir2 := t.TempDir()
	s2 := newTestServer(t, Options{
		JournalPath: filepath.Join(dir2, "journal.jsonl"),
		MaxRetries:  1, // 2 attempts < 3 faults
		Inject:      faultinject.New(7, faultinject.Fault{Site: faultinject.SiteJournalWrite, Rate: 1, Times: 3}),
	})
	_, err = s2.Submit(quickSpec())
	if Classify(err) != CodeAcceptFault {
		t.Fatalf("err = %v, want accept_fault", err)
	}
	if len(s2.Jobs()) != 0 {
		t.Error("failed accept left a visible job")
	}
}

// TestJournalRecovery is the crash-safety core: jobs accepted but
// unfinished when the process dies are re-queued on restart from their
// durable specs and complete bit-identically; jobs that finished before
// the crash keep their digests without re-running.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")

	a := newTestServer(t, Options{Workers: 2, JournalPath: path})
	finished, err := a.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	fv := mustWait(t, finished)
	if fv.State != StateDone {
		t.Fatalf("setup job = %+v", fv)
	}
	var stuck []*Job
	for i := 0; i < 2; i++ {
		j, err := a.Submit(blockSpec())
		if err != nil {
			t.Fatal(err)
		}
		stuck = append(stuck, j)
	}
	for _, j := range stuck {
		waitState(t, j, StateRunning)
	}
	// "Crash": abandon server a without Close — its journal records stop
	// at accept/start for the stuck jobs. (Its workers stay blocked until
	// test exit; the real kill -9 variant lives in crash_test.go.)

	// The restarted server simulates for real: blockSentinel is just a
	// generous MaxCycles bound to it, so the recovered specs complete.
	b := newTestServer(t, Options{Workers: 2, JournalPath: path, runSim: core.RunContext})
	if got := b.Stats().Recovered; got != 2 {
		t.Fatalf("recovered = %d, want 2", got)
	}
	// The finished job survives with its digest, not re-run.
	oldJob, ok := b.Job(finished.ID)
	if !ok {
		t.Fatal("finished job lost across restart")
	}
	ov := oldJob.snapshotView()
	if ov.State != StateDone || ov.Digest != fv.Digest {
		t.Fatalf("finished job after restart = %+v, want done with digest %s", ov, fv.Digest)
	}
	// The recovered jobs re-run for real (blockSentinel is just a large
	// bound to a real simulation) and produce the same digest as a clean
	// run of that spec.
	clean, err := b.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	cleanDigest := mustWait(t, clean).Digest
	for _, id := range []string{stuck[0].ID, stuck[1].ID} {
		j, ok := b.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		v := mustWait(t, j)
		if v.State != StateDone || !v.Recovered {
			t.Fatalf("recovered job %s = %+v", id, v)
		}
		if v.Digest != cleanDigest {
			t.Errorf("recovered job %s digest %s != clean %s (bit-identity broken)", id, v.Digest, cleanDigest)
		}
	}
	// Compaction dropped the pre-crash finished job's records from disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"job":"`+finished.ID+`"`) {
		t.Error("compaction kept finished job records")
	}
}

// TestJournalTornTail: a torn or corrupted tail line (the crash landed
// mid-write) is dropped on recovery — with everything after it — and
// never poisons the surviving prefix.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	a := newTestServer(t, Options{JournalPath: path})
	job, err := a.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := mustWait(t, job)
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":99,"rec":"accept","job":"jxxxxx"`) //nolint:errcheck // deliberately torn
	f.Close()                                                //nolint:errcheck // test fixture

	b := newTestServer(t, Options{JournalPath: path})
	got, ok := b.Job(job.ID)
	if !ok {
		t.Fatal("job lost to torn tail")
	}
	if v := got.snapshotView(); v.State != StateDone || v.Digest != want.Digest {
		t.Fatalf("job after torn-tail recovery = %+v", v)
	}
	if _, ok := b.Job("jxxxxx"); ok {
		t.Error("torn record resurrected a job")
	}
	if st := b.Stats(); st.JournalTorn == 0 {
		t.Error("torn tail not counted")
	}
}

// TestJournalRecoversUnknownSpecField: an accept record written by a build
// whose JobSpec had a field this build lacks (compile_threshold) was sealed
// over bytes that include it. Recovery verifies the written line, so the
// job is re-queued and run, and the records after it are kept.
func TestJournalRecoversUnknownSpecField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	sealRaw := func(body string) string {
		return body[:len(body)-1] + sumPrefix + lineSum([]byte(body)) + "\"}\n"
	}
	old := sealRaw(`{"seq":1,"rec":"accept","job":"j000001","job_seq":1,"spec":{"workload":"129.compress","scale":0.2,"compile_threshold":8}}`)
	next := journalRec{Seq: 2, Rec: recAccept, Job: "j000002", JobSeq: 2, Spec: &JobSpec{Workload: "129.compress", Scale: 0.2}}
	line, err := next.seal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte(old), line...), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{JournalPath: path})
	if st := s.Stats(); st.JournalTorn != 0 {
		t.Fatalf("recovery dropped %d journal lines", st.JournalTorn)
	}
	ref, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := mustWait(t, ref).Digest
	for _, id := range []string{"j000001", "j000002"} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if v := mustWait(t, j); v.State != StateDone || !v.Recovered || v.Digest != want {
			t.Errorf("recovered job %s = %+v, want done with digest %s", id, v, want)
		}
	}
}

// TestJournalRecordChecksum pins the record self-checksum: a flipped bit
// fails verify, a sealed record round-trips.
func TestJournalRecordChecksum(t *testing.T) {
	r := journalRec{Seq: 3, Rec: recAccept, Job: "j000003", JobSeq: 3, Spec: &JobSpec{Workload: "129.compress"}}
	line, err := r.seal()
	if err != nil {
		t.Fatal(err)
	}
	var back journalRec
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("sealed record decoded as %+v, want %+v", back, r)
	}
	if !verifyLine(bytes.TrimSpace(line)) {
		t.Fatal("sealed record failed verify")
	}
	corrupted := strings.Replace(string(line), "129.compress", "129.compresz", 1)
	if verifyLine(bytes.TrimSpace([]byte(corrupted))) {
		t.Fatal("bit-flipped record passed verify")
	}
}

// TestSharedCacheAcrossJobs: the second tenant for a spec warms from the
// first one's published graph; opting out keeps a job cold.
func TestSharedCacheAcrossJobs(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1}) // serialize so publication precedes the second run
	first, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	off := quickSpec()
	no := false
	off.Shared = &no
	third, err := s.Submit(off)
	if err != nil {
		t.Fatal(err)
	}
	fv, sv, tv := mustWait(t, first), mustWait(t, second), mustWait(t, third)
	if fv.Result == nil || fv.Result.Warmed {
		t.Fatalf("first job = %+v", fv)
	}
	if sv.Result == nil || !sv.Result.Warmed {
		t.Fatalf("second job did not warm: %+v", sv)
	}
	if tv.Result == nil || tv.Result.Warmed {
		t.Fatalf("opted-out job warmed: %+v", tv)
	}
	if fv.Digest != sv.Digest || fv.Digest != tv.Digest {
		t.Fatalf("digests diverged: %s %s %s", fv.Digest, sv.Digest, tv.Digest)
	}
	st := s.Stats()
	if st.Shared == nil || st.Shared.Warm != 1 || st.Shared.Publishes == 0 {
		t.Errorf("shared stats = %+v", st.Shared)
	}
}
