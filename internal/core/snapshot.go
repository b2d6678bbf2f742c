package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"fastsim/internal/memo"
	"fastsim/internal/program"
	"fastsim/internal/snapshot"
)

// SnapshotStatus reports what the snapshot layer did during a run; it is
// informational only and zeroed by the determinism tests alongside
// WallTime (a warm start changes speed, never the simulation Result).
type SnapshotStatus struct {
	Loaded        bool   // a snapshot was loaded (warm start)
	LoadedConfigs int    // configurations restored
	LoadedActions int    // actions restored
	LoadedBytes   int    // p-action cache footprint right after loading
	Saved         bool   // a snapshot was written after the run
	SavedConfigs  int    // configurations written
	SavedActions  int    // actions written
	SavedBytes    int    // size of the written snapshot file
	Warning       string // non-empty when a present snapshot was rejected (cold fallback)
}

// fingerprint hashes everything that determines the p-action cache's
// contents: the program's entry point, text and data, the pipeline
// parameters, the cache hierarchy, and the branch predictor. Two runs with
// equal fingerprints build interchangeable caches; a snapshot whose
// fingerprint differs is rejected (ErrMismatch) because replaying it would
// silently produce wrong timing — unlabelled actions (stores, rollbacks)
// apply side effects without any per-replay verification.
//
// Memoization options (policy, limit) are deliberately excluded: they
// bound the cache's size, not its meaning, so a snapshot saved under one
// policy warm-starts a run under another.
// Fingerprint is the exported form of fingerprint, used by the simulation
// server to report which shared-cache entry a job keys into.
func Fingerprint(prog *program.Program, cfg *Config) uint64 { return fingerprint(prog, cfg) }

func fingerprint(prog *program.Program, cfg *Config) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		for _, b := range buf {
			h ^= uint64(b)
			h *= prime64
		}
	}

	word(uint64(prog.Entry))
	word(uint64(len(prog.Text)))
	for _, w := range prog.Text {
		word(uint64(w))
	}
	word(uint64(len(prog.Data)))
	for _, b := range prog.Data {
		h ^= uint64(b)
		h *= prime64
	}

	u := cfg.Uarch
	for _, v := range []int{
		u.FetchWidth, u.DecodeWidth, u.RetireWidth,
		u.IntQueue, u.FPQueue, u.AddrQueue,
		u.IntALUs, u.FPUs, u.AddrAdders,
		u.PhysInt, u.PhysFP,
		u.MaxSpecBranches, u.ActiveList,
	} {
		word(uint64(v))
	}
	c := cfg.Cache
	for _, v := range []int{
		c.L1Size, c.L1Assoc, c.L2Size, c.L2Assoc, c.Line, c.MSHRs,
		c.L1HitLat, c.L1MissLat, c.L2HitExtra, c.MemLat, c.BusBeats,
	} {
		word(uint64(v))
	}
	b := cfg.BPred
	word(uint64(b.Kind))
	word(uint64(b.Entries))
	word(uint64(b.HistoryBits))
	return h
}

// loadSnapshot warm-starts eng's cache from cfg.SnapshotLoad. Every
// failure mode degrades to a cold start: a missing file silently, anything
// else (corruption, version skew, fingerprint mismatch, a rejected graph)
// with a structured warning in st and an EvSnapshot fallback event — unless
// cfg.SnapshotStrict, which turns the warning into the returned error.
func loadSnapshot(eng *memo.Engine, prog *program.Program, cfg *Config, st *SnapshotStatus) error {
	o := cfg.Observer
	o.SnapshotBegin("load", 0)
	begin := time.Now() //fastsim:allow-wallclock: feeds the snapshot.load_ms gauge only, which the sampler's fixed column set never reads — it stays out of every deterministic stream
	opts := snapshot.FileOptions{Retry: snapshot.DefaultRetry(), Inject: cfg.FaultInject}
	img, err := snapshot.LoadFile(cfg.SnapshotLoad, fingerprint(prog, cfg), opts)
	if err == nil {
		// Chaos chain corruption happens between decode and import, past
		// the file checksums — the model of in-memory rot. Flips either die
		// at import validation (cold fallback below) or reach the cache,
		// where replay's structural guards and shadow verification must
		// quarantine them.
		memo.InjectGraphFaults(&img.Graph, cfg.FaultInject)
		err = importWarm(eng, &img.Graph, cfg.Memo.Budget)
	}
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			o.SnapshotEnd(0, "", 0, 0, 0, "")
			return nil // first run: nothing to load, build the cache cold
		}
		if cfg.SnapshotStrict {
			o.SnapshotEnd(0, "", 0, 0, 0, "")
			return fmt.Errorf("core: snapshot load %s: %w", cfg.SnapshotLoad, err)
		}
		st.Warning = fmt.Sprintf("snapshot load %s: %v (starting cold)", cfg.SnapshotLoad, err)
		reason := err.Error()
		o.SnapshotEnd(0, "fallback", 0, 0, 0, reason)
		return nil
	}
	ms := eng.Cache.Stats()
	st.Loaded = true
	st.LoadedConfigs = len(img.Graph.Keys)
	st.LoadedActions = len(img.Graph.Actions)
	st.LoadedBytes = ms.Bytes
	loadMS := float64(time.Since(begin).Microseconds()) / 1000 //fastsim:allow-wallclock: see above
	o.SnapshotEnd(0, "load", st.LoadedConfigs, st.LoadedActions, st.LoadedBytes, "")

	// Gauges for dashboards; the sampler's fixed column set excludes them,
	// so the JSONL sample stream stays deterministic. load_ms is the only
	// wall-clock-derived metric in the registry and is marked as such.
	reg := o.Metrics()
	reg.Gauge("snapshot.loaded_configs", func() float64 { return float64(st.LoadedConfigs) })
	reg.Gauge("snapshot.loaded_actions", func() float64 { return float64(st.LoadedActions) })
	reg.Gauge("snapshot.loaded_bytes", func() float64 { return float64(st.LoadedBytes) })
	reg.Gauge("snapshot.load_ms", func() float64 { return loadMS })
	return nil
}

// saveSnapshot writes eng's cache to cfg.SnapshotSave after a successful
// run. Save failures are real errors (the user asked for a file and did not
// get one), unlike load failures, which only cost warm-up.
func saveSnapshot(eng *memo.Engine, prog *program.Program, cfg *Config, cycles uint64, st *SnapshotStatus) error {
	o := cfg.Observer
	o.SnapshotBegin("save", cycles)
	img := &snapshot.Image{
		Fingerprint: fingerprint(prog, cfg),
		Graph:       *eng.Cache.ExportGraph(),
	}
	opts := snapshot.FileOptions{Retry: snapshot.DefaultRetry(), Inject: cfg.FaultInject}
	n, err := snapshot.SaveFile(cfg.SnapshotSave, img, opts)
	if err != nil {
		o.SnapshotEnd(cycles, "", 0, 0, 0, "")
		return fmt.Errorf("core: %w", err)
	}
	st.Saved = true
	st.SavedBytes = n
	nConfigs, nActions := len(img.Graph.Keys), len(img.Graph.Actions)
	st.SavedConfigs, st.SavedActions = nConfigs, nActions
	o.SnapshotEnd(cycles, "save", nConfigs, nActions, n, "")
	return nil
}
