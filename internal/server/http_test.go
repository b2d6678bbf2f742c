package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"fastsim/internal/faultinject"
)

// httpServer wires a test Server behind httptest.
func httpServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // test
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func errCode(t *testing.T, data []byte) Code {
	t.Helper()
	var body errBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("non-JSON error body %q: %v", data, err)
	}
	return body.Error.Code
}

// TestHTTPStatusMappingExhaustive pins every code's HTTP status — the
// wire contract documented in docs/SERVER.md.
func TestHTTPStatusMappingExhaustive(t *testing.T) {
	want := map[Code]int{
		CodeBadRequest:      400,
		CodeUnknownWorkload: 400,
		CodeBadConfig:       400,
		CodeNotFound:        404,
		CodeConflict:        409,
		CodeQueueFull:       429,
		CodeMemoryBudget:    429,
		CodeDraining:        503,
		CodeAcceptFault:     503,
		CodeSnapshotCorrupt: 422,
		CodeSnapshotVersion: 422,
		CodeEngineFault:     500,
		CodeInternal:        500,
		CodeCancelled:       499,
		CodeDeadline:        504,
	}
	for code, status := range want {
		if got := code.HTTPStatus(); got != status {
			t.Errorf("%s -> %d, want %d", code, got, status)
		}
	}
	retryable := map[Code]bool{CodeQueueFull: true, CodeMemoryBudget: true, CodeAcceptFault: true}
	for code := range want {
		if code.Retryable() != retryable[code] {
			t.Errorf("%s retryable = %v", code, code.Retryable())
		}
	}
}

// TestErrorMappingHTTP drives every request-level typed error through the
// real handler stack and asserts status + JSON code.
func TestErrorMappingHTTP(t *testing.T) {
	_, ts := httpServer(t, Options{})
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     Code
	}{
		{"bad json", "POST", "/v1/jobs", "{", 400, CodeBadRequest},
		{"unknown field", "POST", "/v1/jobs", `{"wat":1}`, 400, CodeBadRequest},
		{"removed field", "POST", "/v1/jobs", `{"workload":"129.compress","compile_threshold":8}`, 400, CodeBadRequest},
		{"no program", "POST", "/v1/jobs", `{}`, 400, CodeBadRequest},
		{"both programs", "POST", "/v1/jobs", `{"workload":"129.compress","asm":"halt"}`, 400, CodeBadRequest},
		{"unknown workload", "POST", "/v1/jobs", `{"workload":"999.nope"}`, 400, CodeUnknownWorkload},
		{"bad policy", "POST", "/v1/jobs", `{"workload":"129.compress","policy":"mru"}`, 400, CodeBadRequest},
		{"bad verify rate", "POST", "/v1/jobs", `{"workload":"129.compress","verify_rate":2}`, 400, CodeBadRequest},
		{"bad fault site", "POST", "/v1/jobs", `{"workload":"129.compress","faults":[{"site":"memo.wat","rate":1}]}`, 400, CodeBadRequest},
		{"job not found", "GET", "/v1/jobs/jzzzzz", "", 404, CodeNotFound},
		{"cancel not found", "DELETE", "/v1/jobs/jzzzzz", "", 404, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, data)
			}
			if got := errCode(t, data); got != tc.code {
				t.Errorf("code = %s, want %s", got, tc.code)
			}
		})
	}
}

// TestRunSyncFailureStatuses: job-level failures on the synchronous API
// surface as the job view with the code's status — engine faults 500,
// deadlines 504 — and successful runs 200 with a digest.
func TestRunSyncFailureStatuses(t *testing.T) {
	_, ts := httpServer(t, Options{MaxRetries: 1})

	resp, data := doJSON(t, "POST", ts.URL+"/v1/run", `{"workload":"129.compress","scale":0.2}`)
	if resp.StatusCode != 200 {
		t.Fatalf("ok run status = %d (%s)", resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != StateDone || view.Digest == "" {
		t.Fatalf("ok run view = %+v", view)
	}

	// shared:false so the run cannot warm from the first run's published
	// chains — it must record, which is where memo.alloc fires.
	resp, data = doJSON(t, "POST", ts.URL+"/v1/run",
		`{"workload":"129.compress","scale":0.2,"shared":false,"faults":[{"site":"memo.alloc","rate":1,"times":100}]}`)
	if resp.StatusCode != 500 {
		t.Fatalf("engine-fault run status = %d (%s)", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != StateFailed || view.Code != CodeEngineFault {
		t.Fatalf("engine-fault view = %+v", view)
	}

	resp, data = doJSON(t, "POST", ts.URL+"/v1/run", `{"workload":"107.mgrid","scale":20,"timeout_ms":30}`)
	if resp.StatusCode != 504 {
		t.Fatalf("deadline run status = %d (%s)", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != StateCancelled || view.Code != CodeDeadline {
		t.Fatalf("deadline view = %+v", view)
	}
}

// TestLoadSheddingHTTP: queue and accept-fault shedding carry 429/503
// with Retry-After.
func TestLoadSheddingHTTP(t *testing.T) {
	s, ts := httpServer(t, Options{Workers: 1, QueueDepth: 1})
	blockBody := `{"workload":"129.compress","scale":0.2,"max_cycles":999999999999}`
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", blockBody)
	if resp.StatusCode != 202 {
		t.Fatalf("blocker submit = %d (%s)", resp.StatusCode, data)
	}
	var blocker JobView
	json.Unmarshal(data, &blocker) //nolint:errcheck // checked above
	j, _ := s.Job(blocker.ID)
	waitState(t, j, StateRunning)
	if resp, _ = doJSON(t, "POST", ts.URL+"/v1/jobs", blockBody); resp.StatusCode != 202 {
		t.Fatalf("queue-filling submit = %d", resp.StatusCode)
	}

	resp, data = doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"129.compress","scale":0.2}`)
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, data)
	}
	if errCode(t, data) != CodeQueueFull {
		t.Errorf("code = %s", errCode(t, data))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	sa, tsa := httpServer(t, Options{
		Inject: faultinject.New(7, faultinject.Fault{Site: faultinject.SiteServerAccept, Rate: 1, Times: 1}),
	})
	_ = sa
	resp, data = doJSON(t, "POST", tsa.URL+"/v1/jobs", `{"workload":"129.compress","scale":0.2}`)
	if resp.StatusCode != 503 || errCode(t, data) != CodeAcceptFault {
		t.Fatalf("accept-fault = %d %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 accept_fault without Retry-After")
	}
}

// TestDrainHTTP: /v1/drain flips healthz to draining and submissions to
// 503 draining.
func TestDrainHTTP(t *testing.T) {
	s, ts := httpServer(t, Options{})
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/healthz", ""); resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/drain", ""); resp.StatusCode != 202 {
		t.Fatalf("drain = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s.Stats().Draining && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"129.compress","scale":0.2}`)
	if resp.StatusCode != 503 || errCode(t, data) != CodeDraining {
		t.Fatalf("submit while draining = %d %s", resp.StatusCode, data)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/healthz", ""); resp.StatusCode != 503 {
		t.Errorf("healthz while draining = %d", resp.StatusCode)
	}
}

// TestCancelledJobStatus: a cancelled async job reads back with the 499
// code on its view.
func TestCancelledJobStatus(t *testing.T) {
	s, ts := httpServer(t, Options{Workers: 1})
	blocker, err := s.Submit(blockSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+blocker.ID, "")
	if resp.StatusCode != 202 {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	mustWait(t, blocker)
	resp, data := doJSON(t, "GET", ts.URL+"/v1/jobs/"+blocker.ID, "")
	if resp.StatusCode != 200 {
		t.Fatalf("get = %d", resp.StatusCode)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != StateCancelled || view.Code != CodeCancelled {
		t.Fatalf("view = %+v", view)
	}
	if CodeCancelled.HTTPStatus() != 499 {
		t.Error("cancelled code must map to 499")
	}
}

// TestClientDisconnectCancelsMidReplay is the dropped-client contract: a
// synchronous tenant that disconnects mid-simulation has its run
// cancelled at the next episode boundary, the job ends cancelled (typed,
// never silently lost), and the journal records the cancellation — with
// no completion record.
func TestClientDisconnectCancelsMidReplay(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/journal.jsonl"
	s, ts := httpServer(t, Options{JournalPath: path})

	ctx, cancelReq := context.WithCancel(context.Background())
	body := `{"workload":"107.mgrid","scale":50}` // seconds of real simulation
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, derr := http.DefaultClient.Do(req)
		errc <- derr
	}()

	// Wait until the job is genuinely mid-simulation, then drop the
	// client.
	var job *Job
	deadline := time.Now().Add(10 * time.Second)
	for job == nil && time.Now().Before(deadline) {
		for _, v := range s.Jobs() {
			if v.State == StateRunning {
				job, _ = s.Job(v.ID)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if job == nil {
		t.Fatal("job never started running")
	}
	time.Sleep(20 * time.Millisecond) // let it get properly into the run
	cancelReq()
	if derr := <-errc; derr == nil {
		t.Fatal("client request unexpectedly succeeded")
	}

	v := mustWait(t, job)
	if v.State != StateCancelled || v.Code != CodeCancelled {
		t.Fatalf("job after disconnect = %+v", v)
	}
	if v.Result != nil {
		t.Error("cancelled job carries a result")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sawAccept, sawCancel bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r journalRec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		if r.Job != job.ID {
			continue
		}
		switch r.Rec {
		case recAccept:
			sawAccept = true
		case recCancel:
			sawCancel = true
		case recDone:
			t.Error("journal has a completion record for a disconnected run")
		}
	}
	if !sawAccept || !sawCancel {
		t.Errorf("journal missing accept/cancel for %s (accept=%v cancel=%v)", job.ID, sawAccept, sawCancel)
	}
}

// TestStatsAndIndexEndpoints smoke-tests the remaining surface, including
// the mounted debugsrv.
func TestStatsAndIndexEndpoints(t *testing.T) {
	s, ts := httpServer(t, Options{})
	job, err := s.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	mustWait(t, job)

	resp, data := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	if resp.StatusCode != 200 {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 1 || st.Completed != 1 || st.Shared == nil {
		t.Errorf("stats = %+v", st)
	}

	resp, data = doJSON(t, "GET", ts.URL+"/v1/jobs", "")
	if resp.StatusCode != 200 || !strings.Contains(string(data), job.ID) {
		t.Errorf("list = %d %s", resp.StatusCode, data)
	}

	for _, path := range []string{"/", "/status", "/debug/pprof/", "/debug/vars"} {
		resp, _ := doJSON(t, "GET", ts.URL+path, "")
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/status?format=json", "")
	if resp.StatusCode != 200 {
		t.Errorf("debug status json = %d", resp.StatusCode)
	}
	_ = fmt.Sprint() // keep fmt import if cases shrink
}
