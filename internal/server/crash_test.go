package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"fastsim/internal/core"
)

// crashSpecs is the mixed-duration job batch both the crash child and the
// recovering parent agree on: fast jobs so the child completes some work
// before the kill, slow ones so the journal holds in-flight jobs when the
// process dies.
func crashSpecs() []JobSpec {
	var specs []JobSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, JobSpec{Workload: "129.compress", Scale: 0.2})
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, JobSpec{Workload: "126.gcc", Scale: 0.5})
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, JobSpec{Workload: "107.mgrid", Scale: 1})
	}
	return specs
}

func crashSpecKey(s JobSpec) string { return fmt.Sprintf("%s/%g", s.Workload, s.Scale) }

// TestCrashChild is the subprocess body for TestCrashRecoveryKill9. It
// only runs when re-executed by the parent with FSSRV_CRASH_CHILD set to
// a journal path: it starts a real server on that journal, submits the
// batch, reports progress on stdout, and blocks until killed.
func TestCrashChild(t *testing.T) {
	path := os.Getenv("FSSRV_CRASH_CHILD")
	if path == "" {
		t.Skip("crash child runs only under TestCrashRecoveryKill9")
	}
	s, err := New(Options{Workers: 2, JournalPath: path})
	if err != nil {
		fmt.Printf("CHILD_ERR new: %v\n", err)
		os.Exit(1)
	}
	for _, spec := range crashSpecs() {
		job, err := s.Submit(spec)
		if err != nil {
			fmt.Printf("CHILD_ERR submit: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("SUBMITTED %s %s\n", job.ID, crashSpecKey(spec))
		go func(job *Job) {
			<-job.Done()
			fmt.Printf("DONE %s\n", job.ID)
		}(job)
	}
	fmt.Println("ALL_SUBMITTED")
	// Block until the parent delivers SIGKILL; the timeout is only a
	// safety net against an orphaned child.
	time.Sleep(2 * time.Minute)
	os.Exit(1)
}

// TestCrashRecoveryKill9 is the chaos acceptance gate: a server killed
// with SIGKILL mid-batch must, on restart over the same journal, account
// for every accepted job — completed results preserved, in-flight jobs
// re-queued and re-run to the same bit-identical digest. Zero silent
// losses.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess and re-runs simulations")
	}
	dir := t.TempDir()
	path := dir + "/journal.jsonl"

	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), "FSSRV_CRASH_CHILD="+path)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill once the whole batch is journalled and at least one job has
	// finished — guaranteeing the crash interrupts real in-flight work.
	submitted := make(map[string]string) // job ID -> spec key
	doneBeforeCrash := make(map[string]bool)
	sc := bufio.NewScanner(stdout)
	allSubmitted := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "SUBMITTED":
			submitted[fields[1]] = fields[2]
		case "DONE":
			doneBeforeCrash[fields[1]] = true
		case "ALL_SUBMITTED":
			allSubmitted = true
		case "CHILD_ERR":
			t.Fatalf("crash child failed: %s", sc.Text())
		}
		if allSubmitted && len(doneBeforeCrash) > 0 {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading child stdout: %v", err)
	}
	if !allSubmitted || len(doneBeforeCrash) == 0 {
		t.Fatalf("child exited early: submitted=%d done=%d", len(submitted), len(doneBeforeCrash))
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no final fsync
		t.Fatal(err)
	}
	_ = cmd.Wait() //nolint:errcheck // killed: error expected
	if len(submitted) != len(crashSpecs()) {
		t.Fatalf("child journalled %d of %d jobs before crash", len(submitted), len(crashSpecs()))
	}
	t.Logf("killed child: %d submitted, %d done before crash", len(submitted), len(doneBeforeCrash))

	// Independent per-spec baselines: what each job's digest must be,
	// whether it completed before the crash or re-runs after recovery.
	baseline := make(map[string]string)
	for _, spec := range crashSpecs() {
		key := crashSpecKey(spec)
		if _, ok := baseline[key]; ok {
			continue
		}
		prog, err := spec.buildProgram()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.buildConfig()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		baseline[key] = resultDigest(res)
	}

	// Restart over the same journal and let recovery re-run the batch.
	s, err := New(Options{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatalf("recovery restart: %v", err)
	}
	defer s.Close() //nolint:errcheck // test
	st := s.Stats()
	if st.Recovered == 0 {
		t.Error("no jobs recovered despite in-flight work at the crash")
	}

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		allDone := true
		for _, v := range s.Jobs() {
			if !terminal(v.State) {
				allDone = false
			}
		}
		if allDone {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	views := make(map[string]JobView)
	for _, v := range s.Jobs() {
		views[v.ID] = v
	}
	for id, key := range submitted {
		v, ok := views[id]
		if !ok {
			t.Errorf("job %s (%s) silently lost across the crash", id, key)
			continue
		}
		if v.State != StateDone {
			t.Errorf("job %s (%s) not recovered to done: %s %s %s", id, key, v.State, v.Code, v.Msg)
			continue
		}
		if v.Digest != baseline[key] {
			t.Errorf("job %s (%s) digest %s != pre-crash baseline %s", id, key, v.Digest, baseline[key])
		}
		if doneBeforeCrash[id] && v.Recovered {
			// A completed-before-crash job is normally restored from its
			// journal done record, not re-run. Re-running is still correct
			// (the digest check above holds either way) but worth noting.
			t.Logf("note: pre-crash job %s re-ran (done record lost in crash window)", id)
		}
	}

	// The journal itself must still parse cleanly after compaction.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var r journalRec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Errorf("post-recovery journal line corrupt: %q", line)
		} else if !verifyLine([]byte(line)) {
			t.Errorf("post-recovery journal checksum bad: %q", line)
		}
	}
}
