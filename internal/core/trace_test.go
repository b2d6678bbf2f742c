package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"fastsim/internal/faultinject"
	"fastsim/internal/memo"
	"fastsim/internal/obs"
	"fastsim/internal/program"
)

// tracedRun runs p with an Observer whose only sink is a cycle-timebase
// span trace and returns the result and the raw trace bytes.
func tracedRun(t *testing.T, cfg Config, p *program.Program) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Observer = obs.New(obs.Options{SpanW: &buf})
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestTracerDeterminism is the tentpole guarantee for span tracing, on both
// engines:
//
//  1. attaching a span sink changes no field of Result;
//  2. the cycle-timebase trace is byte-identical across repeated runs;
//  3. it stays byte-identical when runs execute concurrently (the -j case:
//     each run owns its Observer, so worker interleaving cannot leak in).
func TestTracerDeterminism(t *testing.T) {
	p := obsWorkloads(t)["099.go"]
	for _, memoize := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Memoize = memoize
		bare, err := Run(p, cfg)
		if err != nil {
			t.Fatalf("memoize=%v: %v", memoize, err)
		}

		traced, trace1 := tracedRun(t, cfg, p)
		bare.WallTime, traced.WallTime = 0, 0
		if !reflect.DeepEqual(bare, traced) {
			t.Errorf("memoize=%v: Result differs with span trace attached:\nbare   %+v\ntraced %+v",
				memoize, bare, traced)
		}

		_, trace2 := tracedRun(t, cfg, p)
		if !bytes.Equal(trace1, trace2) {
			t.Errorf("memoize=%v: cycle-timebase trace differs between identical runs", memoize)
		}

		// Concurrent runs, one Observer each — the shape fsbench -j drives.
		const jobs = 4
		traces := make([][]byte, jobs)
		var wg sync.WaitGroup
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				var buf bytes.Buffer
				c := DefaultConfig()
				c.Memoize = memoize
				c.Observer = obs.New(obs.Options{SpanW: &buf})
				if _, err := Run(p, c); err != nil {
					t.Error(err)
					return
				}
				traces[j] = buf.Bytes()
			}(j)
		}
		wg.Wait()
		for j := 0; j < jobs; j++ {
			if !bytes.Equal(traces[j], trace1) {
				t.Errorf("memoize=%v: trace from concurrent run %d differs", memoize, j)
			}
		}

		validateTrace(t, trace1, memoize)
	}
}

// failWriter rejects every write.
type failWriter struct{}

var errWriteFailed = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

// TestObserverSinkWriteFailure: a run whose event or span sink cannot be
// written fails with the write error instead of succeeding with a
// truncated stream, on both engines.
func TestObserverSinkWriteFailure(t *testing.T) {
	p := obsWorkloads(t)["129.compress"]
	for name, opt := range map[string]obs.Options{
		"events": {EventW: failWriter{}},
		"spans":  {SpanW: failWriter{}},
	} {
		for _, memoize := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Memoize = memoize
			cfg.Observer = obs.New(opt)
			res, err := Run(p, cfg)
			if !errors.Is(err, errWriteFailed) || res != nil {
				t.Errorf("%s memoize=%v: Run = (%v, %v), want the write error", name, memoize, res, err)
			}
		}
	}
}

// validateTrace decodes the trace and checks its structural promises: valid
// JSON, exactly one run span, balanced memo spans on FastSim and none on
// SlowSim.
func validateTrace(t *testing.T, data []byte, memoize bool) {
	t.Helper()
	var evs []struct {
		Ph   string `json:"ph"`
		Name string `json:"name"`
		Cat  string `json:"cat"`
		TS   uint64 `json:"ts"`
		Dur  uint64 `json:"dur"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var run, memo int
	for _, e := range evs {
		switch {
		case e.Ph == "X" && e.Name == "run":
			run++
		case e.Ph == "X" && e.Cat == "memo":
			memo++
		}
	}
	if run != 1 {
		t.Errorf("memoize=%v: %d run spans, want 1", memoize, run)
	}
	if memoize && memo == 0 {
		t.Errorf("fastsim trace has no memo spans")
	}
	if !memoize && memo != 0 {
		t.Errorf("slowsim trace has %d memo spans, want 0", memo)
	}
}

// TestTracerQuarantineInstants: a fully shadow-verified warm start whose
// first imported action has a bit flipped quarantines the corrupt chain;
// the trace shows one quarantine instant per quarantine alongside the
// verify spans, and the Result still matches the clean run (the
// guarded-replay guarantee, visible in the trace).
func TestTracerQuarantineInstants(t *testing.T) {
	p := obsWorkloads(t)["129.compress"]
	path, cold := writeSnapshot(t, "129.compress", memo.DefaultOptions())
	cfg := DefaultConfig()
	cfg.Memo.VerifyRate = 1
	cfg.SnapshotLoad = path
	cfg.FaultInject = faultinject.New(5, faultinject.Fault{Site: faultinject.SiteChainFlip, Nth: 1})
	res, trace := tracedRun(t, cfg, p)
	var evs []struct {
		Ph   string `json:"ph"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(trace, &evs); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	verify, quarantine := 0, 0
	for _, e := range evs {
		switch {
		case e.Ph == "X" && e.Name == obs.SpanVerify:
			verify++
		case e.Ph == "i" && e.Name == "quarantine":
			quarantine++
		}
	}
	if verify == 0 {
		t.Fatal("full shadow verification produced no verify spans in the trace")
	}
	if quarantine == 0 || uint64(quarantine) != res.Memo.Quarantines {
		t.Fatalf("%d quarantine instants in the trace, stats say %d (want > 0 and equal)",
			quarantine, res.Memo.Quarantines)
	}
	if !reflect.DeepEqual(cold, normalize(res)) {
		t.Error("quarantined run's Result differs from the clean run")
	}
}
