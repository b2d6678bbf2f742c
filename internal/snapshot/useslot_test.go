package snapshot_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fastsim/internal/core"
	"fastsim/internal/memo"
	"fastsim/internal/snapshot"
	"fastsim/internal/workloads"
)

// A v2 image whose configs section carries non-zero use slots (written by
// a build that still filled the slot) decodes to the same graph as a
// freshly encoded image, and a warm run from it produces a Result
// bit-identical to a warm run from the fresh image.
func TestNonZeroUseSlotsLoadWarm(t *testing.T) {
	w, ok := workloads.Get("099.go")
	if !ok {
		t.Fatal("unknown workload 099.go")
	}
	prog, err := w.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.fsnap")
	cfg := core.DefaultConfig()
	cfg.Memo = memo.Options{Policy: memo.PolicyGC, Limit: 1 << 15}
	cfg.SnapshotSave = fresh
	if _, err := core.Run(prog, cfg); err != nil {
		t.Fatalf("cold: %v", err)
	}
	data, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	legacyData := snapshot.WithUseSlots(data, func(i int) uint64 { return uint64(i%7)*1000 + 1 })
	if string(legacyData) == string(data) {
		t.Fatal("use slots not rewritten")
	}
	legacy := filepath.Join(dir, "legacy.fsnap")
	if err := os.WriteFile(legacy, legacyData, 0o644); err != nil {
		t.Fatal(err)
	}

	a, err := snapshot.DecodeAny(data)
	if err != nil {
		t.Fatalf("decode fresh: %v", err)
	}
	b, err := snapshot.DecodeAny(legacyData)
	if err != nil {
		t.Fatalf("decode legacy: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("use slots changed the decoded image")
	}
	if string(snapshot.Encode(b)) != string(data) {
		t.Error("re-encoding the legacy image did not zero its use slots")
	}

	warm := func(path string) *core.Result {
		t.Helper()
		wc := core.DefaultConfig()
		wc.Memo = cfg.Memo
		wc.SnapshotLoad = path
		wc.SnapshotStrict = true
		r, err := core.Run(prog, wc)
		if err != nil {
			t.Fatalf("warm from %s: %v", filepath.Base(path), err)
		}
		if !r.Snapshot.Loaded {
			t.Fatalf("warm from %s did not load: %+v", filepath.Base(path), r.Snapshot)
		}
		r.WallTime = 0
		return r
	}
	if rf, rl := warm(fresh), warm(legacy); !reflect.DeepEqual(rf, rl) {
		t.Errorf("warm Results diverged:\nfresh  %+v\nlegacy %+v", rf, rl)
	}
}
