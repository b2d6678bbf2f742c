package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These tests pin the admission/journal hardening invariants: recovery
// never bricks on bad input, admission bounds hold across the unlocked
// fsync window, and failed accepts leak nothing.

// TestJournalOversizedLineTornTail: a journal line beyond the scanner
// limit (only producible by corruption or a hand-edited file, since
// admission caps specs far below it) is treated like a torn tail — the
// surviving prefix recovers and the server starts, rather than New
// failing forever until the journal is hand-edited.
func TestJournalOversizedLineTornTail(t *testing.T) {
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
	huge := fmt.Sprintf(`{"seq":99,"rec":"accept","job":"jhuge","spec":{"asm":%q}}`,
		strings.Repeat("x", maxJournalLine+1))
	f.WriteString(huge + "\n")                                       //nolint:errcheck // test fixture
	f.WriteString(`{"seq":100,"rec":"cancel","job":"jhuge"}` + "\n") //nolint:errcheck // test fixture
	f.Close()                                                        //nolint:errcheck // test fixture

	b := newTestServer(t, Options{JournalPath: path})
	got, ok := b.Job(job.ID)
	if !ok {
		t.Fatal("job lost to oversized journal line")
	}
	if v := got.snapshotView(); v.State != StateDone || v.Digest != want.Digest {
		t.Fatalf("job after oversized-line recovery = %+v", v)
	}
	if _, ok := b.Job("jhuge"); ok {
		t.Error("oversized record resurrected a job")
	}
	if st := b.Stats(); st.JournalTorn == 0 {
		t.Error("oversized line not counted as torn")
	}
}

// TestJournalSyncFailureNoDuplicate: a fully-written line whose fsync
// fails must be rolled back, or the record the caller was told had failed
// stays on disk and its resubmission leaves two sealed copies — breaking
// the strictly-increasing-Seq invariant recovery's torn-tail reasoning
// relies on.
func TestJournalSyncFailureNoDuplicate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	jnl, err := openJournal(path, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fails := 1
	jnl.fsync = func(f *os.File) error {
		if fails > 0 {
			fails--
			return syscall.EIO
		}
		return f.Sync()
	}
	rec := journalRec{Rec: recAccept, Job: "j000001", JobSeq: 1}
	if err := jnl.append(rec); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append over a failing fsync = %v, want EIO", err)
	}
	if err := jnl.append(rec); err != nil {
		t.Fatal(err)
	}
	if err := jnl.close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("j000001")); n != 1 {
		t.Fatalf("journal holds %d copies of the record after a failed fsync, want 1:\n%s", n, data)
	}
	recs, dropped, err := readJournal(path)
	if err != nil || dropped != 0 || len(recs) != 1 {
		t.Fatalf("readJournal = %d recs, %d dropped, err %v", len(recs), dropped, err)
	}
}

// TestSubmitDrainRaceSheds: a submit whose durable accept lands in the
// window where Drain stops the workers must be shed (rolled back, cancel
// journalled), not enqueued — an enqueue with no workers left would
// strand the job and hang RunSync forever.
func TestSubmitDrainRaceSheds(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{JournalPath: filepath.Join(dir, "journal.jsonl")})
	drained := make(chan error, 1)
	s.testHookAcceptAppend = func() {
		go func() { drained <- s.Drain(context.Background()) }()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			s.mu.Lock()
			stopped := s.stopping
			s.mu.Unlock()
			if stopped {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Error("drain never stopped the workers")
	}
	_, err := s.Submit(quickSpec())
	if Classify(err) != CodeDraining {
		t.Fatalf("submit racing drain: err = %v, want draining", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := len(s.Jobs()); got != 0 {
		t.Errorf("shed job still visible (%d jobs)", got)
	}
	s.mu.Lock()
	mem, reserved := s.memInUse, s.pendingReserved
	s.mu.Unlock()
	if mem != 0 || reserved != 0 {
		t.Errorf("admission not rolled back: memInUse=%d pendingReserved=%d", mem, reserved)
	}
}

// TestQueueDepthAcrossFsyncWindow: the queue bound counts submissions
// that passed admission but are still inside the unlocked fsync window,
// so concurrent submits cannot overshoot QueueDepth.
func TestQueueDepthAcrossFsyncWindow(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{QueueDepth: 1, JournalPath: filepath.Join(dir, "journal.jsonl")})
	var inner error
	hooked := false
	s.testHookAcceptAppend = func() {
		if hooked {
			return // only probe from the outer submit
		}
		hooked = true
		_, inner = s.Submit(quickSpec())
	}
	job, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if Classify(inner) != CodeQueueFull {
		t.Fatalf("submit during another submit's fsync window: err = %v, want queue_full", inner)
	}
	if v := mustWait(t, job); v.State != StateDone {
		t.Fatalf("outer job = %+v", v)
	}
}

// TestAcceptFailureReleasesContexts: a submit shed because the accept
// record cannot be journalled must tear down the job contexts it created
// — otherwise every shed submission leaves a live child context on the
// server's base context until close.
func TestAcceptFailureReleasesContexts(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{JournalPath: filepath.Join(dir, "journal.jsonl")})
	// Close the journal file out from under the server so every append
	// fails permanently (ErrInvalid is not transient, so no retries).
	s.jnl.mu.Lock()
	s.jnl.f.Close() //nolint:errcheck // deliberate sabotage
	s.jnl.f = nil
	s.jnl.mu.Unlock()

	s.testHookAcceptAppend = func() { t.Error("accept append unexpectedly succeeded") }
	// Run the sync path too: it arms the AfterFunc watch on baseCtx.
	view, err := s.RunSync(context.Background(), quickSpec())
	if Classify(err) != CodeAcceptFault {
		t.Errorf("RunSync = %+v, %v, want accept_fault", view, err)
	}
	if _, err := s.Submit(quickSpec()); Classify(err) != CodeAcceptFault {
		t.Fatalf("Submit = %v, want accept_fault", err)
	}
	s.mu.Lock()
	mem, reserved, shed := s.memInUse, s.pendingReserved, s.counters.shed
	s.mu.Unlock()
	if mem != 0 || reserved != 0 {
		t.Errorf("failed accepts left charges: memInUse=%d pendingReserved=%d", mem, reserved)
	}
	if shed != 2 {
		t.Errorf("shed = %d, want 2", shed)
	}
}

// TestAsmSizeCap: admission rejects an Asm listing large enough to
// threaten the journal's line limit, at both the library and HTTP layers,
// and the HTTP layer also bounds the raw request body.
func TestAsmSizeCap(t *testing.T) {
	s, ts := httpServer(t, Options{})

	// Large enough to trip both the Asm cap (library layer) and, once
	// JSON-encoded, the request-body cap (HTTP layer).
	big := JobSpec{Asm: strings.Repeat("x", maxSpecBytes+16)}
	if _, err := s.Submit(big); Classify(err) != CodeBadRequest {
		t.Fatalf("oversized asm: err = %v, want bad_request", Classify(err))
	}

	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(body)) <= maxSpecBytes {
		t.Fatalf("test spec should exceed maxSpecBytes (%d <= %d)", len(body), maxSpecBytes)
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", string(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d body %s", resp.StatusCode, data)
	}
	if errCode(t, data) != CodeBadRequest {
		t.Fatalf("oversized body: code %s", errCode(t, data))
	}

	// A sane spec still fits comfortably.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/run", `{"workload":"129.compress","scale":0.2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal run after caps: status %d body %s", resp.StatusCode, data)
	}
}
