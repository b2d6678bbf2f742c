package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fastsim/internal/faultinject"
	"fastsim/internal/memo"
	"fastsim/internal/obs"
	"fastsim/internal/program"
	"fastsim/internal/testprog"
)

var updateGolden = flag.Bool("update", false, "rewrite the observability goldens under testdata/golden")

// goldenProgram is the small branchy program every golden run simulates:
// big enough to fill, flush and collect a few-KB p-action cache, small
// enough to keep each golden file within a few tens of KB.
func goldenProgram(t *testing.T) *program.Program {
	t.Helper()
	p, err := testprog.Build(7, testprog.Options{Segments: 2, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// observedRun runs p with an event stream, a cycle-timebase span trace and
// a pipetrace attached and returns the three byte streams.
func observedRun(t *testing.T, p *program.Program, cfg Config) (events, spans, pipe []byte) {
	t.Helper()
	var ev, sp, pt bytes.Buffer
	cfg.Observer = obs.New(obs.Options{EventW: &ev, SpanW: &sp, PipetraceW: &pt})
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}
	return ev.Bytes(), sp.Bytes(), pt.Bytes()
}

// pipetraceMarker starts the body of a fast-forward marker line.
const pipetraceMarker = "| fast-forward from cycle "

// pipetraceSum is one config's line of testdata/golden/pipetrace.sum: the
// pipetrace's line count, fast-forward marker count and SHA-256. Full text
// goldens would run to over a megabyte across the seven configs.
func pipetraceSum(name string, pipe []byte) (line string, markers int) {
	markers = bytes.Count(pipe, []byte(pipetraceMarker))
	return fmt.Sprintf("%s lines=%d markers=%d sha256=%x\n",
		name, bytes.Count(pipe, []byte("\n")), markers, sha256.Sum256(pipe)), markers
}

// replayedChains counts the replay_end events of an event stream that
// replayed at least one action: each is one pipetrace marker line.
func replayedChains(t *testing.T, events []byte) int {
	t.Helper()
	n := 0
	dec := json.NewDecoder(bytes.NewReader(events))
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("event decode: %v", err)
		}
		if e.Type == obs.EvReplayEnd && e.Actions > 0 {
			n++
		}
	}
	return n
}

// TestObservabilityGoldens pins the JSONL event stream and the
// cycle-timebase span trace byte for byte, and the pipetrace by its
// checksum line in pipetrace.sum, on a fixed set of runs that
// together reach the flush and generational policies, the robustness layer
// (quarantine, guard, verify and degraded episodes), snapshot IO and
// SlowSim. Any change to a wire format, or to which occurrences are
// reported, shows up as a golden diff; regenerate deliberately with
// `go test ./internal/core -run ObservabilityGoldens -update`.
func TestObservabilityGoldens(t *testing.T) {
	p := goldenProgram(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.fsnap")
	corrupt := filepath.Join(dir, "corrupt.fsnap")

	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"flush", func() Config {
			c := DefaultConfig()
			c.Memo = memo.Options{Policy: memo.PolicyFlush, Limit: 4 << 10}
			return c
		}},
		{"gengc-save", func() Config {
			c := DefaultConfig()
			c.Memo = memo.Options{Policy: memo.PolicyGenGC, Limit: 4 << 10}
			c.SnapshotSave = snap
			return c
		}},
		{"snapshot-load", func() Config {
			c := DefaultConfig()
			c.SnapshotLoad = snap
			return c
		}},
		{"snapshot-fallback", func() Config {
			data, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(corrupt, data[:25], 0o644); err != nil {
				t.Fatal(err)
			}
			c := DefaultConfig()
			c.SnapshotLoad = corrupt
			return c
		}},
		{"robust", func() Config {
			// Full shadow verification of a warm start whose first imported
			// action has a bit flipped, under a budget the run outgrows:
			// verify spans, a quarantine, a guard transition and a forced
			// collection in one run.
			c := DefaultConfig()
			c.Memo = memo.Options{Budget: 40_000, VerifyRate: 1}
			c.SnapshotLoad = snap
			c.FaultInject = faultinject.New(3, faultinject.Fault{Site: faultinject.SiteChainFlip, Nth: 1})
			return c
		}},
		{"degraded", func() Config {
			// A budget below the working set: the guard gives up on
			// memoizing and runs detached detailed-only episodes.
			c := DefaultConfig()
			c.Memo = memo.Options{Budget: 8 << 10}
			return c
		}},
		{"slowsim", func() Config {
			c := DefaultConfig()
			c.Memoize = false
			return c
		}},
	}

	var all [][]byte
	var sums strings.Builder
	total := 0
	for _, tc := range cases {
		events, spans, pipe := observedRun(t, p, tc.cfg())
		sum, markers := pipetraceSum(tc.name, pipe)
		sums.WriteString(sum)
		if chains := replayedChains(t, events); markers != chains {
			t.Errorf("%s: %d pipetrace markers, want one per replay_end with actions > 0 (%d)", tc.name, markers, chains)
		}
		for _, f := range []struct {
			ext  string
			data []byte
		}{{".events.jsonl", events}, {".trace.json", spans}} {
			path := filepath.Join("testdata", "golden", tc.name+f.ext)
			total += len(f.data)
			all = append(all, f.data)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, f.data, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(f.data, want) {
				t.Errorf("%s: output differs from the golden (%d bytes, want %d)", path, len(f.data), len(want))
			}
		}
	}
	sumPath := filepath.Join("testdata", "golden", "pipetrace.sum")
	if *updateGolden {
		if err := os.WriteFile(sumPath, []byte(sums.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(sumPath); err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	} else if sums.String() != string(want) {
		t.Errorf("%s: pipetrace differs from the golden\ngot:\n%swant:\n%s", sumPath, sums.String(), want)
	}
	if total > 200<<10 {
		t.Errorf("goldens total %d bytes; keep them under 200 KB", total)
	}
	checkGoldenCoverage(t, all)
}

// checkGoldenCoverage asserts that the golden set reaches every event type
// and span kind it is meant to pin, so a run that silently stops reaching
// one (a config drifting out of its regime) fails loudly instead of
// shrinking the goldens' coverage.
func checkGoldenCoverage(t *testing.T, streams [][]byte) {
	t.Helper()
	seen := make(map[string]bool)
	for _, data := range streams {
		if bytes.HasPrefix(data, []byte("[")) {
			var evs []struct {
				Ph   string `json:"ph"`
				Name string `json:"name"`
			}
			if err := json.Unmarshal(data, &evs); err != nil {
				t.Fatalf("span trace is not valid JSON: %v", err)
			}
			for _, e := range evs {
				seen["span "+e.Ph+" "+e.Name] = true
			}
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		for dec.More() {
			var e obs.Event
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("event decode: %v", err)
			}
			seen["event "+e.Type] = true
		}
	}
	want := []string{
		"event " + obs.EvRecordStart, "event " + obs.EvRecordEnd,
		"event " + obs.EvReplayStart, "event " + obs.EvReplayEnd,
		"event " + obs.EvPActionLimit, "event " + obs.EvPActionFlush, "event " + obs.EvPActionGC,
		"event " + obs.EvRollback, "event " + obs.EvSnapshot,
		"event " + obs.EvQuarantine, "event " + obs.EvGuard,
		"span M process_name", "span M thread_name", "span X run",
		"span X " + obs.SpanRecord, "span X " + obs.SpanVerify,
		"span X " + obs.SpanDegraded, "span X " + obs.SpanResume,
		"span X replay", "span X flush", "span X gc", "span X minor-gc", "span X forced-gc",
		"span X load", "span X save", "span i quarantine", "span i guard", "span C memo.bytes",
	}
	var missing []string
	for _, k := range want {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		var got []string
		for k := range seen {
			got = append(got, k)
		}
		sort.Strings(got)
		t.Errorf("golden set never reaches %s\n(seen: %s)", strings.Join(missing, ", "), strings.Join(got, ", "))
	}
}
