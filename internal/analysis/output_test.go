package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{Pos: token.Position{Filename: "internal/memo/engine.go", Line: 10, Column: 3}, Analyzer: "taint", Message: "call chain reaches time.Now: a → b"},
		{Pos: token.Position{Filename: "internal/memo/engine.go", Line: 12, Column: 1}, Analyzer: "purity", Message: "memo-policy function x is impure"},
		{Pos: token.Position{Filename: "internal/obs/publish.go", Line: 4, Column: 2}, Analyzer: "sharedmut", Message: "mixed access"},
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sampleDiags(), All); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "fsvet" {
		t.Errorf("driver name = %q, want fsvet", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(All) {
		t.Errorf("rules = %d, want one per analyzer (%d)", len(run.Tool.Driver.Rules), len(All))
	}
	if len(run.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "taint" ||
		first.Locations[0].PhysicalLocation.ArtifactLocation.URI != "internal/memo/engine.go" ||
		first.Locations[0].PhysicalLocation.Region.StartLine != 10 {
		t.Errorf("first result mismatch: %+v", first)
	}
}
