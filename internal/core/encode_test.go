package core

import (
	"bytes"
	"testing"

	"fastsim/internal/testprog"
	"fastsim/internal/uarch"
)

// TestConfigEncodeRestoreRoundTrip drives the detailed pipeline through
// real programs and, at every seventh cycle boundary, encodes the
// configuration, restores it into a second, reused pipeline, and
// re-encodes: the bytes must match and the restored entries must carry the
// same state and correctly rebound driver handles. This is the §4.2
// compression's exactness proof — if any µ-architecture state escaped the
// encoding, FastSim could not resume detailed simulation mid-run.
func TestConfigEncodeRestoreRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		opts := testprog.DefaultOptions()
		opts.Iterations = 15
		opts.Segments = 6
		prog, err := testprog.Build(seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		drv := newDriver(prog, cfg.Cache, cfg.BPred)
		pl, err := uarch.New(cfg.Uarch, prog, drv, prog.Entry)
		if err != nil {
			t.Fatal(err)
		}
		re, err := uarch.New(cfg.Uarch, prog, drv, prog.Entry)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		var buf, buf2 []byte
		for cycle := 0; !pl.Done(); cycle++ {
			if cycle > 5_000_000 {
				t.Fatal("did not finish")
			}
			pl.Step()
			if cycle%7 != 0 || pl.Done() {
				continue
			}
			buf = pl.EncodeConfig(buf[:0])
			if err := re.Restore(string(buf), pl.Now, drv.Heads()); err != nil {
				t.Fatalf("seed %d cycle %d: restore: %v", seed, cycle, err)
			}
			buf2 = re.EncodeConfig(buf2[:0])
			if !bytes.Equal(buf, buf2) {
				t.Fatalf("seed %d cycle %d: re-encode mismatch:\n%s\nvs\n%s",
					seed, cycle,
					uarch.DumpConfig(prog, buf), uarch.DumpConfig(prog, buf2))
			}
			// Handles must rebind identically: compare entries fully.
			a, b := pl.Entries(), re.Entries()
			if len(a) != len(b) {
				t.Fatalf("seed %d cycle %d: %d vs %d entries", seed, cycle, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d cycle %d entry %d:\n%+v\nvs\n%+v",
						seed, cycle, i, a[i], b[i])
				}
			}
			checked++
		}
		if checked < 50 {
			t.Fatalf("seed %d: only %d boundaries checked", seed, checked)
		}
	}
}

// TestRestoreRejectsCorruptKeys tries every truncation and byte flip of a
// valid configuration: Restore must fail cleanly or produce a pipeline that
// re-encodes to its own key, never panic. uarch's FuzzRestore explores
// further from the same kind of seeds.
func TestRestoreRejectsCorruptKeys(t *testing.T) {
	prog, err := testprog.Build(3, testprog.Options{Iterations: 5, Segments: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	drv := newDriver(prog, cfg.Cache, cfg.BPred)
	pl, err := uarch.New(cfg.Uarch, prog, drv, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		pl.Step()
	}
	key := pl.EncodeConfig(nil)

	re, err := uarch.New(cfg.Uarch, prog, drv, prog.Entry)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(key); cut++ {
		if err := re.Restore(string(key[:cut]), 0, drv.Heads()); err == nil {
			// A shorter prefix can only be valid if it is self-consistent;
			// re-encode and verify it round-trips.
			t.Logf("prefix %d accepted (must be self-consistent)", cut)
		}
	}
	for i := range key {
		mut := append([]byte(nil), key...)
		mut[i] ^= 0xFF
		if err := re.Restore(string(mut), 0, drv.Heads()); err != nil {
			continue // cleanly rejected
		}
		back := re.EncodeConfig(nil)
		if !bytes.Equal(back, mut) {
			// Accepting a corrupt key is tolerable only if decode(encode)
			// is still a fixpoint; otherwise replay would diverge.
			t.Errorf("mutation at byte %d decoded inconsistently", i)
		}
	}
}
