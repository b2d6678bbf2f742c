package core

import (
	"errors"
	"fmt"

	"fastsim/internal/memo"
	"fastsim/internal/program"
)

// SharedStatus reports a run's shared p-action cache activity
// (Result.Shared). Like SnapshotStatus it describes how the run went, not
// what it computed: a run warmed from a shared graph produces simulation
// results bit-identical to a cold run's, so determinism comparisons zero
// this struct alongside WallTime, Memo and Snapshot.
type SharedStatus struct {
	Attached    bool   // a SharedCache participated in this run
	BaseEpoch   uint64 // epoch observed at acquire (0: no entry yet, or its graph was over the memo budget)
	Warmed      bool   // a published graph was imported
	WarmConfigs int    // configurations imported
	WarmActions int    // actions imported
	Published   bool   // the run's merged graph became the new epoch
	Epoch       uint64 // the epoch this run published (when Published)
	Poisoned    bool   // the run quarantined chains and dropped its base epoch
	Warning     string // non-empty when an acquired graph was skipped or rejected at import
}

var errOverBudget = errors.New("over the memo budget")

// importWarm imports a warm-start graph (a snapshot's or the shared
// cache's) into eng's cache. The memo budget is a hard bound from the first
// byte and the guard reclaims only at episode boundaries, so a graph larger
// than the budget is refused with errOverBudget.
func importWarm(eng *memo.Engine, g *memo.Graph, budget int) error {
	if n := g.Footprint(); budget > 0 && n > budget {
		return fmt.Errorf("graph needs %d bytes, %w of %d bytes", n, errOverBudget, budget)
	}
	return eng.Cache.ImportGraph(g)
}

// acquireShared warm-starts eng from cfg.Shared's published graph for the
// run fingerprint, recording what happened in st. A graph over the memo
// budget is skipped and the run settles as a cold run (base epoch 0), so its
// smaller graph cannot replace the richer published one. An import
// rejection — which cannot occur for graphs produced by ExportGraph, but is
// guarded against all the same — poisons the entry and degrades to a cold
// start; the partially imported configurations are shells awaiting
// re-recording, which replay treats exactly like collected ones, so the
// Result is unaffected. Returns the fingerprint the run keys under.
func acquireShared(eng *memo.Engine, prog *program.Program, cfg *Config, st *SharedStatus) uint64 {
	fp := fingerprint(prog, cfg)
	st.Attached = true
	g, epoch := cfg.Shared.Acquire(fp)
	st.BaseEpoch = epoch
	if g == nil {
		return fp
	}
	err := importWarm(eng, g, cfg.Memo.Budget)
	if errors.Is(err, errOverBudget) {
		st.BaseEpoch = 0
		st.Warning = fmt.Sprintf("shared graph skipped: %v (starting cold)", err)
		return fp
	}
	if err != nil {
		cfg.Shared.Poison(fp, epoch)
		st.Poisoned = true
		st.Warning = fmt.Sprintf("shared graph rejected: %v (starting cold)", err)
		cfg.Observer.Shared(0, "poison", 0, 0, epoch, fp)
		return fp
	}
	st.Warmed = true
	st.WarmConfigs = len(g.Keys)
	st.WarmActions = len(g.Actions)
	cfg.Observer.Shared(0, "acquire", st.WarmConfigs, st.WarmActions, epoch, fp)
	return fp
}

// settleShared closes out the run's shared-cache participation. Quarantines
// anywhere in the run poison the acquired epoch — corrupt chains must never
// propagate to a neighbour — whether the run ultimately succeeded (it
// self-healed) or failed. Only a fully successful run publishes; failed or
// cancelled runs contribute nothing, mirroring the snapshot-save rule.
func settleShared(eng *memo.Engine, fp uint64, cfg *Config, cycles uint64, runErr error, st *SharedStatus) {
	if st.Poisoned {
		return // already dropped at import
	}
	ms := eng.Cache.Stats()
	if ms.Quarantines > 0 {
		cfg.Shared.Poison(fp, st.BaseEpoch)
		st.Poisoned = true
		cfg.Observer.Shared(cycles, "poison", 0, 0, st.BaseEpoch, fp)
		return
	}
	if runErr != nil {
		return
	}
	g := eng.Cache.ExportGraph()
	keys, acts := len(g.Keys), len(g.Actions)
	epoch, ok := cfg.Shared.Publish(fp, g, st.BaseEpoch)
	if !ok {
		cfg.Observer.Shared(cycles, "reject", keys, acts, epoch, fp)
		return
	}
	st.Published = true
	st.Epoch = epoch
	cfg.Observer.Shared(cycles, "publish", keys, acts, epoch, fp)
}
