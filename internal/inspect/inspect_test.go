package inspect_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fastsim/internal/core"
	"fastsim/internal/inspect"
	"fastsim/internal/obs"
	"fastsim/internal/snapshot"
	"fastsim/internal/workloads"
)

// buildSnapshot runs a small FastSim workload with snapshot save and returns
// the snapshot path plus the run's memo statistics.
func buildSnapshot(t *testing.T) (string, *core.Result) {
	t.Helper()
	w, ok := workloads.Get("099.go")
	if !ok {
		t.Fatal("unknown workload 099.go")
	}
	p, err := w.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.fsnap")
	cfg := core.DefaultConfig()
	cfg.SnapshotSave = path
	res, err := core.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return path, res
}

// TestSnapshotReportMatchesRun: the inspector's config/action totals must
// equal what the run reported saving — the same identity the CI gate checks
// against BENCH_4.json at full scale.
func TestSnapshotReportMatchesRun(t *testing.T) {
	path, res := buildSnapshot(t)
	img, err := snapshot.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := inspect.AnalyzeSnapshot(img, 5)
	if rep.Configs != res.Snapshot.SavedConfigs || rep.Actions != res.Snapshot.SavedActions {
		t.Fatalf("inspector sees %d configs / %d actions, run saved %d / %d",
			rep.Configs, rep.Actions, res.Snapshot.SavedConfigs, res.Snapshot.SavedActions)
	}
	if uint64(rep.Configs) != res.Memo.Configs || uint64(rep.Actions) != res.Memo.Actions {
		t.Fatalf("inspector totals (%d, %d) differ from Result.Memo (%d, %d)",
			rep.Configs, rep.Actions, res.Memo.Configs, res.Memo.Actions)
	}

	// The chain walk must account for every action exactly once:
	// non-shell chains partition the action array.
	var chainSum uint64
	if n := rep.ChainHist.Count(); n != uint64(rep.Configs-rep.Shells) {
		t.Fatalf("chain histogram has %d entries, want %d non-shell configs",
			n, rep.Configs-rep.Shells)
	}
	for _, c := range rep.TopChains {
		if c.Actions == 0 {
			t.Fatalf("top chain with zero actions: %+v", c)
		}
		chainSum += c.Actions
	}
	if len(rep.TopChains) > 5 {
		t.Fatalf("topN=5 returned %d chains", len(rep.TopChains))
	}
	for i := 1; i < len(rep.TopChains); i++ {
		if rep.TopChains[i].Actions > rep.TopChains[i-1].Actions {
			t.Fatal("top chains not sorted by actions desc")
		}
	}
	var kindSum uint64
	for _, n := range rep.Kinds {
		kindSum += n
	}
	if kindSum != uint64(rep.Actions) {
		t.Fatalf("kind counts sum to %d, want %d", kindSum, rep.Actions)
	}

	// Deterministic: analyzing the same file twice gives identical reports.
	img2, err := snapshot.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(inspect.AnalyzeSnapshot(img2, 5))
	if string(a) != string(b) {
		t.Fatal("snapshot report not deterministic")
	}

	var sb strings.Builder
	rep.Render(&sb)
	for _, want := range []string{"configs", "actions", "top chains"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("rendered report missing %q:\n%s", want, sb.String())
		}
	}
}

// TestAnalyzeEvents digests a synthetic stream driven through the real
// Observer hooks and checks every aggregate.
func TestAnalyzeEvents(t *testing.T) {
	var buf strings.Builder
	o := obs.New(obs.Options{EventW: &buf})
	o.RecordStart(0)
	o.RecordEnd(10, 10, 8)
	o.ReplayStart(10)
	o.ReplayEnd(100, 3, 12)
	o.RecordStart(100)
	o.RecordEnd(130, 30, 25)
	o.Quarantine(140, "verify divergence", 7, 0xabc)
	o.Guard(150, "pressure", 4096)
	o.Snapshot(160, "save", 2, 9, 512, "")
	o.Close()

	rep, err := inspect.AnalyzeEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 9 {
		t.Fatalf("%d events, want 9", rep.Events)
	}
	if rep.Records != 2 || rep.RecordCycles != 40 || rep.RecordInsts != 33 {
		t.Fatalf("record aggregates = %d/%d/%d", rep.Records, rep.RecordCycles, rep.RecordInsts)
	}
	if rep.Chains != 1 || rep.ChainEpisodes != 3 || rep.ChainActions != 12 {
		t.Fatalf("chain aggregates = %d/%d/%d", rep.Chains, rep.ChainEpisodes, rep.ChainActions)
	}
	if len(rep.Timeline) != 3 {
		t.Fatalf("timeline has %d entries, want 3", len(rep.Timeline))
	}
	wantTypes := []string{"quarantine", "guard", "snapshot"}
	for i, want := range wantTypes {
		if rep.Timeline[i].Type != want {
			t.Fatalf("timeline[%d] = %+v, want type %q", i, rep.Timeline[i], want)
		}
	}
	if rep.Timeline[0].Actions != 7 || rep.Timeline[1].Bytes != 4096 {
		t.Fatalf("timeline payloads = %+v", rep.Timeline)
	}

	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "timeline") {
		t.Fatalf("rendered events report missing timeline:\n%s", sb.String())
	}
}

// TestAnalyzeEventsStorm: a quarantine storm bigger than any scanner buffer
// default still parses, and unknown event types are tolerated.
func TestAnalyzeEventsStorm(t *testing.T) {
	var buf strings.Builder
	o := obs.New(obs.Options{EventW: &buf})
	const storm = 5000
	for i := uint64(0); i < storm; i++ {
		o.Quarantine(i, "chain bit flip detected during shadow verification", 3, i)
	}
	o.Close()
	buf.WriteString(`{"type":"from_the_future","cycle":1}` + "\n")

	rep, err := inspect.AnalyzeEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != storm+1 {
		t.Fatalf("%d events, want %d", rep.Events, storm+1)
	}
	if rep.ByType["from_the_future"] != 1 {
		t.Fatal("unknown event type not counted")
	}
	if got := len(rep.Timeline); got != storm {
		t.Fatalf("%d timeline entries, want %d", got, storm)
	}
}

// TestAnalyzeEventsLegacyCompile: streams from builds that could compile
// replay chains carry compile events, a type this build no longer emits.
// They still analyze, counted under ByType only, with every other
// aggregate as if they were absent.
func TestAnalyzeEventsLegacyCompile(t *testing.T) {
	const legacy = `{"type":"memo_compile","cycle":12,"actions":40,"bytes":640,"fingerprint":"00000000deadbeef"}` + "\n"
	var buf strings.Builder
	o := obs.New(obs.Options{EventW: &buf})
	o.ReplayStart(10)
	o.ReplayEnd(100, 3, 12)
	o.Close()
	plain, err := inspect.AnalyzeEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := inspect.AnalyzeEvents(strings.NewReader(legacy + buf.String() + legacy))
	if err != nil {
		t.Fatalf("stream with compile events: %v", err)
	}
	var legacyType struct{ Type string }
	if err := json.Unmarshal([]byte(legacy), &legacyType); err != nil {
		t.Fatal(err)
	}
	if got := rep.ByType[legacyType.Type]; got != 2 || rep.Events != plain.Events+2 {
		t.Fatalf("compile events counted %d times in %d events, want 2 in %d",
			got, rep.Events, plain.Events+2)
	}
	rep.Events, rep.ByType = plain.Events, plain.ByType
	if !reflect.DeepEqual(rep, plain) {
		t.Errorf("compile events changed the digest:\nwith    %+v\nwithout %+v", rep, plain)
	}
}

// TestAnalyzeEventsBadLine: a corrupt line fails with its line number.
func TestAnalyzeEventsBadLine(t *testing.T) {
	in := `{"type":"record_start","cycle":1}` + "\n" + `{"type":` + "\n"
	_, err := inspect.AnalyzeEvents(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse failure", err)
	}
}

// TestInspectRejectsCorruptSnapshot: the inspection path skips the identity
// check but keeps integrity checks.
func TestInspectRejectsCorruptSnapshot(t *testing.T) {
	path, _ := buildSnapshot(t)
	img, err := snapshot.Inspect(path)
	if err != nil {
		t.Fatalf("clean inspect: %v", err)
	}
	_ = img
	data := readFile(t, path)
	data[len(data)/2] ^= 0x40
	writeFile(t, path, data)
	if _, err := snapshot.Inspect(path); err == nil {
		t.Fatal("corrupt snapshot accepted by Inspect")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
