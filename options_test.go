package fastsim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOptionsSnapshotRoundTrip(t *testing.T) {
	prog, err := Assemble("demo.s", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.fsnap")

	cold, err := Run(prog, WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Snapshot.Saved {
		t.Fatalf("no snapshot saved: %+v", cold.Snapshot)
	}
	warm, err := Run(prog, WithSnapshot(path), WithSnapshotStrict())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Snapshot.Loaded {
		t.Fatalf("no snapshot loaded: %+v", warm.Snapshot)
	}
	if warm.Cycles != cold.Cycles || warm.Checksum != cold.Checksum {
		t.Errorf("warm run diverged: %d/%d cycles, %#x/%#x checksum",
			warm.Cycles, cold.Cycles, warm.Checksum, cold.Checksum)
	}
}

func TestOptionsSentinels(t *testing.T) {
	prog, err := Assemble("demo.s", demoSrc)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Run(prog, WithMaxCycles(1), WithPipeline(PipelineParams{})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero pipeline params: got %v, want ErrBadConfig", err)
	}

	bad := filepath.Join(t.TempDir(), "bad.fsnap")
	if err := os.WriteFile(bad, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(prog, WithSnapshotLoad(bad), WithSnapshotStrict())
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("garbage snapshot: got %v, want ErrSnapshotCorrupt", err)
	}
	// Non-strict: same file degrades to a warning.
	res, err := Run(prog, WithSnapshotLoad(bad))
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Warning == "" {
		t.Error("no warning on fallback")
	}
}

func TestOptionsOrderingAndWithConfig(t *testing.T) {
	prog, err := Assemble("demo.s", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Later options win over WithConfig.
	cfg := DefaultConfig()
	cfg.Memoize = true
	res, err := Run(prog, WithConfig(cfg), WithMemoize(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Memoized {
		t.Error("later option did not override WithConfig")
	}

	// A fully built Config passed through WithConfig agrees with Run.
	viaOpts, err := Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	viaCfg, err := Run(prog, WithConfig(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if viaOpts.Cycles != viaCfg.Cycles {
		t.Errorf("Run and Run(WithConfig) disagree: %d vs %d cycles", viaOpts.Cycles, viaCfg.Cycles)
	}
}

func TestOptionsSharedCache(t *testing.T) {
	prog, err := Assemble("demo.s", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSharedCache(2)
	first, err := Run(prog, WithSharedCache(sc))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Shared.Published {
		t.Error("first run did not publish to the shared cache")
	}
	second, err := Run(prog, WithSharedCache(sc))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Shared.Warmed {
		t.Error("second run did not warm from the shared cache")
	}
	if first.Cycles != second.Cycles || first.Checksum != second.Checksum {
		t.Errorf("shared warm run diverged: %d/%d cycles, %d/%d checksum",
			first.Cycles, second.Cycles, first.Checksum, second.Checksum)
	}
	// Sharing composes with SlowSim only trivially: with memoization off
	// the cache is never consulted.
	slow, err := Run(prog, WithSharedCache(sc), WithMemoize(false))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Shared.Warmed || slow.Shared.Published {
		t.Error("SlowSim run touched the shared cache")
	}
	if slow.Cycles != first.Cycles {
		t.Errorf("SlowSim disagrees with shared FastSim: %d vs %d", slow.Cycles, first.Cycles)
	}
	st := sc.Stats()
	if st.Publishes == 0 || st.Warm == 0 {
		t.Errorf("shared stats missing activity: %+v", st)
	}
}

func TestRunContextCancellation(t *testing.T) {
	prog, err := Assemble("demo.s", demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, prog); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A background context behaves exactly like Run.
	if _, err := RunContext(context.Background(), prog); err != nil {
		t.Fatal(err)
	}
}
