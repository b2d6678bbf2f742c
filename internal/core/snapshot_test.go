package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fastsim/internal/memo"
	"fastsim/internal/obs"
	"fastsim/internal/snapshot"
)

// normalize zeroes the fields that legitimately differ between warm and
// cold runs: host wall time, memo counters (a warm run replays instead of
// recording), and the snapshot status itself. Everything else — cycles,
// instructions, checksums, cache and predictor statistics — must be
// bit-identical.
func normalize(r *Result) *Result {
	c := *r
	c.WallTime = 0
	c.Memo = memo.Stats{}
	c.Snapshot = SnapshotStatus{}
	return &c
}

// TestWarmStartBitIdentical is the tentpole invariant: for every workload
// and every replacement policy, a run warm-started from a snapshot
// produces a Result bit-identical to a cold run.
func TestWarmStartBitIdentical(t *testing.T) {
	progs := obsWorkloads(t)
	policies := []memo.Options{
		{Policy: memo.PolicyUnbounded},
		{Policy: memo.PolicyFlush, Limit: 1 << 15},
		{Policy: memo.PolicyGC, Limit: 1 << 15},
		{Policy: memo.PolicyGenGC, Limit: 1 << 15, MajorEvery: 2},
	}
	for name, p := range progs {
		for _, mo := range policies {
			t.Run(name+"/"+mo.Policy.String(), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "cache.fsnap")
				cfg := DefaultConfig()
				cfg.Memo = mo
				cfg.SnapshotSave = path
				cold, err := Run(p, cfg)
				if err != nil {
					t.Fatalf("cold: %v", err)
				}
				if !cold.Snapshot.Saved || cold.Snapshot.SavedBytes == 0 {
					t.Fatalf("cold run did not save: %+v", cold.Snapshot)
				}

				warmCfg := DefaultConfig()
				warmCfg.Memo = mo
				warmCfg.SnapshotLoad = path
				warmCfg.SnapshotStrict = true
				warm, err := Run(p, warmCfg)
				if err != nil {
					t.Fatalf("warm: %v", err)
				}
				if !warm.Snapshot.Loaded || warm.Snapshot.LoadedConfigs == 0 {
					t.Fatalf("warm run did not load: %+v", warm.Snapshot)
				}
				if !reflect.DeepEqual(normalize(cold), normalize(warm)) {
					t.Errorf("warm Result diverged from cold:\ncold %+v\nwarm %+v",
						normalize(cold), normalize(warm))
				}
				// Imported stats are cumulative: the warm run's counters
				// continue from the snapshot's, so its own work is the
				// delta. It must never simulate more in detail than the
				// cold run did, and under the unbounded policy (nothing
				// evicted between save and load) the warm start is
				// perfect: zero detailed instructions.
				// Bounded policies get slack: the imported bytes make the
				// first flush/collection fire earlier, which can cost a
				// fraction of a percent of extra recording.
				ownDetailed := warm.Memo.DetailedInsts - cold.Memo.DetailedInsts
				if ownDetailed > cold.Memo.DetailedInsts+cold.Memo.DetailedInsts/10 {
					t.Errorf("warm run simulated %d insts in detail, well beyond the cold run's %d",
						ownDetailed, cold.Memo.DetailedInsts)
				}
				if mo.Policy == memo.PolicyUnbounded && ownDetailed != 0 {
					t.Errorf("unbounded warm start simulated %d insts in detail, want 0", ownDetailed)
				}
				if warm.Memo.Hits <= cold.Memo.Hits {
					t.Errorf("warm hits %d <= cold hits %d; the snapshot did nothing",
						warm.Memo.Hits, cold.Memo.Hits)
				}
			})
		}
	}
}

// TestSnapshotSaveLoadAcrossPolicies pins the documented property that the
// fingerprint excludes memo options: a snapshot saved under one policy
// warm-starts a run under another, still bit-identically.
func TestSnapshotSaveLoadAcrossPolicies(t *testing.T) {
	p := obsWorkloads(t)["129.compress"]
	path := filepath.Join(t.TempDir(), "cache.fsnap")

	saveCfg := DefaultConfig()
	saveCfg.SnapshotSave = path
	cold, err := Run(p, saveCfg)
	if err != nil {
		t.Fatal(err)
	}

	warmCfg := DefaultConfig()
	warmCfg.Memo = memo.Options{Policy: memo.PolicyGenGC, Limit: 1 << 15, MajorEvery: 2}
	warmCfg.SnapshotLoad = path
	warmCfg.SnapshotStrict = true
	warm, err := Run(p, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Snapshot.Loaded {
		t.Fatal("cross-policy load rejected")
	}
	if !reflect.DeepEqual(normalize(cold), normalize(warm)) {
		t.Error("cross-policy warm start diverged")
	}
}

// TestSnapshotCorruptionFallsBackCold truncates a valid snapshot at every
// section boundary and flips header bytes; each damaged file must produce
// a clean cold run — same Result, a structured warning, no error, no
// panic — and strict mode must surface the typed sentinel instead.
func TestSnapshotCorruptionFallsBackCold(t *testing.T) {
	p := obsWorkloads(t)["099.go"]
	dir := t.TempDir()
	good := filepath.Join(dir, "good.fsnap")

	cfg := DefaultConfig()
	cfg.SnapshotSave = good
	cold, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	// Damage set: truncations at structural boundaries (header edge, each
	// section header edge, mid-payload) plus bit flips across the header.
	type damage struct {
		name string
		data []byte
	}
	var cases []damage
	for _, n := range []int{0, 1, 8, 20, 39, 40, 60, len(data) / 4, len(data) / 2, len(data) - 1} {
		if n < len(data) {
			cases = append(cases, damage{name: "truncate", data: data[:n]})
		}
	}
	for _, i := range []int{0, 7, 9, 17, 25, 35, 41, 52} {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		cases = append(cases, damage{name: "bitflip", data: mut})
	}

	for i, dmg := range cases {
		bad := filepath.Join(dir, "bad.fsnap")
		if err := os.WriteFile(bad, dmg.data, 0o644); err != nil {
			t.Fatal(err)
		}

		var events strings.Builder
		warmCfg := DefaultConfig()
		warmCfg.SnapshotLoad = bad
		warmCfg.Observer = obs.New(obs.Options{EventW: &events})
		res, err := Run(p, warmCfg)
		if err != nil {
			t.Fatalf("%s[%d]: damaged snapshot errored instead of falling back: %v", dmg.name, i, err)
		}
		if res.Snapshot.Loaded {
			t.Fatalf("%s[%d]: damaged snapshot loaded", dmg.name, i)
		}
		if res.Snapshot.Warning == "" {
			t.Errorf("%s[%d]: fallback produced no warning", dmg.name, i)
		}
		if !strings.Contains(events.String(), `"op":"fallback"`) {
			t.Errorf("%s[%d]: no fallback event emitted", dmg.name, i)
		}
		if !reflect.DeepEqual(normalize(cold), normalize(res)) {
			t.Fatalf("%s[%d]: fallback Result differs from cold", dmg.name, i)
		}

		strictCfg := DefaultConfig()
		strictCfg.SnapshotLoad = bad
		strictCfg.SnapshotStrict = true
		if _, err := Run(p, strictCfg); err == nil {
			t.Errorf("%s[%d]: strict mode accepted damage", dmg.name, i)
		} else if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("%s[%d]: strict error %v lacks a typed sentinel", dmg.name, i, err)
		}
	}
}

// TestSnapshotFingerprintMismatch saves under one processor model and
// loads under another: the load must be rejected (the cache would replay
// wrong timing) and fall back cold.
func TestSnapshotFingerprintMismatch(t *testing.T) {
	p := obsWorkloads(t)["099.go"]
	path := filepath.Join(t.TempDir(), "cache.fsnap")
	cfg := DefaultConfig()
	cfg.SnapshotSave = path
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}

	other := DefaultConfig()
	other.Cache.L1Size = 8 << 10 // different hierarchy -> different intervals
	other.SnapshotLoad = path
	res, err := Run(p, other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Loaded {
		t.Fatal("fingerprint mismatch loaded anyway")
	}
	if !strings.Contains(res.Snapshot.Warning, "fingerprint") {
		t.Errorf("warning %q does not name the fingerprint", res.Snapshot.Warning)
	}

	other.SnapshotStrict = true
	if _, err := Run(p, other); !errors.Is(err, snapshot.ErrMismatch) {
		t.Errorf("strict mismatch: got %v, want ErrMismatch", err)
	}
}

// TestFingerprintPinned pins the run fingerprint of the suite workloads:
// snapshot files and shared-cache entries are keyed by it, so a change to
// the hash would orphan every saved snapshot.
func TestFingerprintPinned(t *testing.T) {
	cfg := DefaultConfig()
	for name, want := range map[string]uint64{
		"099.go":       0x47369cc058f8beb,
		"129.compress": 0xe579c58d85b3f1df,
		"107.mgrid":    0x8f52954de4cd07a1,
	} {
		if got := Fingerprint(obsWorkloads(t)[name], &cfg); got != want {
			t.Errorf("%s fingerprint %#x, want %#x", name, got, want)
		}
	}
}

// TestSnapshotMissingFileIsSilentColdStart pins the first-run experience:
// no file, no warning, no error.
func TestSnapshotMissingFileIsSilentColdStart(t *testing.T) {
	p := obsWorkloads(t)["099.go"]
	cfg := DefaultConfig()
	cfg.SnapshotLoad = filepath.Join(t.TempDir(), "never-written.fsnap")
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Loaded || res.Snapshot.Warning != "" {
		t.Fatalf("missing file was not a silent cold start: %+v", res.Snapshot)
	}
}

// TestCancelledRunWritesNoSnapshot drives RunContext with a context that
// cancels mid-simulation: the run must return the context error and leave
// neither a snapshot nor a temp file behind.
func TestCancelledRunWritesNoSnapshot(t *testing.T) {
	p := obsWorkloads(t)["107.mgrid"]
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.fsnap")

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first episode-boundary poll
	cfg := DefaultConfig()
	cfg.SnapshotSave = path
	if _, err := RunContext(ctx, p, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("cancelled run left %d files behind (%v)", len(ents), ents[0].Name())
	}

	// SlowSim honours the same contract.
	slow := DefaultConfig()
	slow.Memoize = false
	if _, err := RunContext(ctx, p, slow); !errors.Is(err, context.Canceled) {
		t.Fatalf("slowsim: got %v, want context.Canceled", err)
	}
}

// TestValidateSentinels pins the ErrBadConfig contract for errors.Is.
func TestValidateSentinels(t *testing.T) {
	p := obsWorkloads(t)["099.go"]

	bad := DefaultConfig()
	bad.Uarch.FetchWidth = 0
	if _, err := Run(p, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad pipeline: got %v, want ErrBadConfig", err)
	}

	bad = DefaultConfig()
	bad.BPred.Entries = 500 // not a power of two
	if _, err := Run(p, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad bpred: got %v, want ErrBadConfig", err)
	}

	bad = DefaultConfig()
	bad.Memoize = false
	bad.SnapshotSave = "x.fsnap"
	if _, err := Run(p, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("snapshot without memoize: got %v, want ErrBadConfig", err)
	}

	bad = DefaultConfig()
	bad.SnapshotStrict = true
	if _, err := Run(p, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("strict without load: got %v, want ErrBadConfig", err)
	}

	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}
