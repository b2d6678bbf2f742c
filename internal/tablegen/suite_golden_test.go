package tablegen

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/suite.golden.json")

// wallFields are the suite JSON's wall-time-derived fields: the only ones
// that may differ between two runs of the same code (the same set CI's
// "Parallel-harness determinism" step deletes before comparing).
var wallFields = []string{"emulatorSeconds", "slowsimKinstsPerSec",
	"fastsimKinstsPerSec", "refsimKinstsPerSec", "memoSpeedup"}

// TestSuiteGolden pins every exact output of the full suite (`fsbench -all
// -scale 0.05 -json`): Table 2's cycles and instructions, Table 4's
// detailed fraction, Table 5's configs, actions, bytes and chain
// statistics, and the FastSim ≡ SlowSim verdict for all 18 workloads.
// Regenerate it only deliberately: go test -run SuiteGolden -update.
func TestSuiteGolden(t *testing.T) {
	s, err := Run(Options{Scale: testScale, RunRef: true, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := s.WriteJSON(&raw); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scale     float64          `json:"scale"`
		Workloads []map[string]any `json:"workloads"`
	}
	if err := json.Unmarshal(raw.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		for _, f := range wallFields {
			delete(w, f)
		}
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "suite.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("suite output differs from %s; diff it against:\n%s", path, got)
	}
}
