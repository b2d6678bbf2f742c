package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// the benchmark prints in step: the same names, with the same units.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []entry, printed map[string]metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
		}
		for _, e := range listed {
			m, ok := printed[e.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is listed but not printed", kind, e.Name)
			case m.Unit != e.Unit:
				t.Errorf("%s: %s is listed in %s but printed in %s", kind, e.Name, e.Unit, m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd(newPhase(false), []float64{1}))
	check("per_layer", spec.PerLayer, layerMetrics(newPhase(false), newPhase(true), runtimeDelta{}))
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, inf()}, 0.9); got != inf() {
		t.Errorf("p90 over a failed request = %v, want +Inf", got)
	}
}

func inf() float64 { return math.Inf(1) }

// TestPerRequestFigures checks that kips and latency weigh each distinct
// request once, however many of its calls a run finished.
func TestPerRequestFigures(t *testing.T) {
	ph := newPhase(false)
	add := func(key string, memoize bool, insts uint64, wallMs, cpuMs int) {
		ph.record(call{key: key, memoize: memoize, insts: insts,
			wall: time.Duration(wallMs) * time.Millisecond, cpu: time.Duration(cpuMs) * time.Millisecond}, nil, nil)
	}
	for i := 0; i < 9; i++ {
		add("a", true, 1000, 10, 8) // 1000 insts in 8 ms of CPU
	}
	add("b", true, 3000, 40, 32) // one call: 3000 insts in 32 ms
	add("c", false, 500, 5, 5)
	if got, want := ph.kips(true, true), 4000.0/0.040/1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("FastSim kips by CPU = %v, want %v", got, want)
	}
	if got, want := ph.kips(true, false), 4000.0/0.050/1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("FastSim kips by wall = %v, want %v", got, want)
	}
	if got, want := ph.latency(0.5, true), (8.0+32+5)/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 CPU latency = %v, want %v", got, want)
	}
	ph.record(call{key: "c", wall: time.Millisecond}, nil, errors.New("mismatch"))
	if got := ph.latency(0.9, false); !math.IsInf(got, 1) {
		t.Errorf("p90 latency over a failed call = %v, want +Inf", got)
	}
}
