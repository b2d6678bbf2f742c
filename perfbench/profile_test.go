package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protocol-buffer encoder for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// testProfile builds a fixed CPU profile whose expected attribution is
// known: a map insert under the driver, a replay walk, a GC worker, and
// an emulator step inlined into direct execution under the benchmark.
func testProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count",
		"fastsim/internal/memo.(*Engine).replayRun", // 3
		"runtime.mapassign_fast64",                  // 4
		"fastsim/internal/core.(*driver).IssueLoad", // 5
		"runtime.gcBgMarkWorker",                    // 6
		"fastsim/internal/emulator.StepInst",        // 7
		"fastsim/internal/direct.(*Engine).step",    // 8
		"fastsim/perfbench.main",                    // 9
	}
	var p pb
	// Functions 1..7 name strings 3..9.
	for id := uint64(1); id <= 7; id++ {
		p = p.bytes(profFunction, pb(nil).varint(functionID, id).varint(functionName, id+2))
	}
	loc := func(id uint64, funcs ...uint64) {
		m := pb(nil).varint(locationID, id)
		for _, f := range funcs {
			m = m.bytes(locationLine, pb(nil).varint(lineFunction, f))
		}
		p = p.bytes(profLocation, m)
	}
	loc(1, 2)    // runtime.mapassign_fast64
	loc(2, 3)    // core IssueLoad
	loc(3, 1)    // memo replayRun
	loc(4, 4)    // GC worker
	loc(5, 5, 6) // emulator.StepInst inlined into direct step
	loc(6, 7)    // perfbench main

	// Location ids packed in one sample and unpacked in another.
	p = p.bytes(profSample, pb(nil).bytes(sampleLocationID, packed(1, 2, 3)).bytes(sampleValue, packed(3, 30_000_000)))
	p = p.bytes(profSample, pb(nil).varint(sampleLocationID, 3).varint(sampleValue, 2).varint(sampleValue, 20_000_000))
	p = p.bytes(profSample, pb(nil).bytes(sampleLocationID, packed(4)).bytes(sampleValue, packed(4, 40_000_000)))
	p = p.bytes(profSample, pb(nil).bytes(sampleLocationID, packed(5, 6)).bytes(sampleValue, packed(1, 10_000_000)))
	for _, s := range strs {
		p = p.bytes(profStringTable, []byte(s))
	}

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttribute(t *testing.T) {
	prof, err := parseProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(prof)
	if a.samples != 10 || a.cpuNs != 100_000_000 {
		t.Fatalf("samples %d, cpu %d ns; want 10, 1e8", a.samples, a.cpuNs)
	}
	want := map[string]int64{"core": 3, "memo": 2, "runtime": 4, "direct": 1}
	for _, l := range layers {
		if a.byLayer[l] != want[l] {
			t.Errorf("layer %s: %d samples, want %d", l, a.byLayer[l], want[l])
		}
	}
	p, se := a.share("runtime")
	if p != 0.4 || math.Abs(se-math.Sqrt(0.4*0.6/10)) > 1e-12 {
		t.Errorf("runtime share %v ± %v, want 0.4 ± %v", p, se, math.Sqrt(0.024))
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	raw := pb(nil).bytes(profSample, pb(nil).varint(sampleValue, 1))
	if _, err := parseProfile(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"fastsim/internal/memo.(*Engine).replayRun":     "fastsim/internal/memo",
		"fastsim/internal/core.Run.func1":               "fastsim/internal/core",
		"fastsim.Run":                                   "fastsim",
		"runtime.mapassign_fast64":                      "runtime",
		"net/http.(*conn).serve":                        "net/http",
		"fastsim/internal/stats.F[go.shape.*uint8/x.T]": "fastsim/internal/stats",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	if layerOf("fastsim/internal/emulator") != "direct" || layerOf("fastsim/perfbench") != "bench" || layerOf("fastsim/internal/asm") != "other" {
		t.Error("layerOf misroutes emulator, bench or other packages")
	}
}
