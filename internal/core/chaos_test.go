package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fastsim/internal/faultinject"
	"fastsim/internal/memo"
	"fastsim/internal/obs"
	"fastsim/internal/snapshot"
)

// baseline runs p memoized with default options and returns the normalized
// Result every fault scenario must reproduce bit-identically.
func chaosBaseline(t *testing.T, name string, progsKey string) *Result {
	t.Helper()
	p := obsWorkloads(t)[progsKey]
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatalf("%s baseline: %v", name, err)
	}
	return normalize(res)
}

// Shadow verification at rate 1.0 re-executes every hit in detail: no chain
// is ever replayed, so no corrupt chain could ever influence a statistic —
// and the Result must still be bit-identical to the plain memoized run.
func TestShadowVerifyBitIdentical(t *testing.T) {
	for name, p := range obsWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			plain, err := Run(p, DefaultConfig())
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			cfg := DefaultConfig()
			cfg.Memo.VerifyRate = 1.0
			verified, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("verified: %v", err)
			}
			vm := verified.Memo
			if vm.EpisodesVerified == 0 {
				t.Fatalf("no episodes verified at rate 1.0")
			}
			if vm.EpisodesReplay != 0 || vm.Hits != 0 {
				t.Errorf("rate 1.0 still replayed: hits=%d replays=%d", vm.Hits, vm.EpisodesReplay)
			}
			if vm.VerifyDivergences != 0 {
				t.Errorf("healthy cache diverged %d times", vm.VerifyDivergences)
			}
			if !reflect.DeepEqual(normalize(plain), normalize(verified)) {
				t.Errorf("verified Result differs from plain run")
			}
		})
	}
}

// Sampled verification (rate < 1) mixes replayed and verified episodes and
// must stay bit-identical too.
func TestSampledVerifyBitIdentical(t *testing.T) {
	p := obsWorkloads(t)["129.compress"]
	plain, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Memo.VerifyRate = 0.25
	sampled, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm := sampled.Memo
	if sm.EpisodesVerified == 0 || sm.Hits == 0 {
		t.Fatalf("rate 0.25 should mix modes: verified=%d hits=%d", sm.EpisodesVerified, sm.Hits)
	}
	if !reflect.DeepEqual(normalize(plain), normalize(sampled)) {
		t.Errorf("sampled-verify Result differs from plain run")
	}
}

// writeSnapshot runs p cold and saves its cache, returning the path and the
// normalized cold Result.
func writeSnapshot(t *testing.T, p string, mo memo.Options) (string, *Result) {
	t.Helper()
	prog := obsWorkloads(t)[p]
	path := filepath.Join(t.TempDir(), "cache.fsnap")
	cfg := DefaultConfig()
	cfg.Memo = mo
	cfg.SnapshotSave = path
	cold, err := Run(prog, cfg)
	if err != nil {
		t.Fatalf("cold save run: %v", err)
	}
	return path, normalize(cold)
}

// A snapshot truncated in flight (injected after a successful read) fails
// the checksum: non-strict runs heal by falling back to a cold start with a
// warning and a bit-identical Result; strict runs get the typed error.
func TestChaosTruncatedSnapshotHeals(t *testing.T) {
	p := obsWorkloads(t)["099.go"]
	path, cold := writeSnapshot(t, "099.go", memo.DefaultOptions())

	cfg := DefaultConfig()
	cfg.SnapshotLoad = path
	cfg.FaultInject = faultinject.New(1, faultinject.Fault{Site: faultinject.SiteSnapshotTrunc, Nth: 1})
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("truncated load must heal, got: %v", err)
	}
	if res.Snapshot.Loaded || res.Snapshot.Warning == "" {
		t.Errorf("expected cold fallback with warning, got %+v", res.Snapshot)
	}
	if !reflect.DeepEqual(cold, normalize(res)) {
		t.Errorf("healed Result differs from cold baseline")
	}

	strict := cfg
	strict.SnapshotStrict = true
	strict.FaultInject = faultinject.New(1, faultinject.Fault{Site: faultinject.SiteSnapshotTrunc, Nth: 1})
	if _, err := Run(p, strict); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("strict truncated load error = %v, want ErrCorrupt", err)
	}
}

// One transient read fault is absorbed by the retry policy: the warm start
// succeeds as if nothing happened.
func TestChaosTransientIORetryHeals(t *testing.T) {
	p := obsWorkloads(t)["099.go"]
	path, cold := writeSnapshot(t, "099.go", memo.DefaultOptions())

	cfg := DefaultConfig()
	cfg.SnapshotLoad = path
	cfg.SnapshotStrict = true // retries must make even strict mode succeed
	cfg.FaultInject = faultinject.New(2, faultinject.Fault{Site: faultinject.SiteSnapshotRead, Nth: 1})
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("one transient fault must be retried away, got: %v", err)
	}
	if !res.Snapshot.Loaded {
		t.Fatalf("warm start did not happen: %+v", res.Snapshot)
	}
	if !reflect.DeepEqual(cold, normalize(res)) {
		t.Errorf("warm Result differs from cold baseline")
	}
}

// Persistent transient faults exhaust the retries; non-strict runs heal
// with a cold fallback and a bit-identical Result.
func TestChaosPersistentIOFallsBack(t *testing.T) {
	p := obsWorkloads(t)["099.go"]
	path, cold := writeSnapshot(t, "099.go", memo.DefaultOptions())

	cfg := DefaultConfig()
	cfg.SnapshotLoad = path
	cfg.FaultInject = faultinject.New(3, faultinject.Fault{Site: faultinject.SiteSnapshotRead, Rate: 1})
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("persistent IO fault must fall back cold, got: %v", err)
	}
	if res.Snapshot.Loaded || res.Snapshot.Warning == "" {
		t.Errorf("expected cold fallback with warning, got %+v", res.Snapshot)
	}
	if !reflect.DeepEqual(cold, normalize(res)) {
		t.Errorf("healed Result differs from cold baseline")
	}
}

// An injected allocation failure inside the engine surfaces as the typed
// ErrEngineFault with the offending configuration's fingerprint — never a
// process crash, never a partial Result.
func TestChaosAllocFaultTyped(t *testing.T) {
	p := obsWorkloads(t)["129.compress"]
	cfg := DefaultConfig()
	cfg.FaultInject = faultinject.New(4, faultinject.Fault{Site: faultinject.SiteMemoAlloc, Nth: 100})
	res, err := Run(p, cfg)
	if err == nil {
		t.Fatalf("injected alloc failure produced no error (res=%+v)", res)
	}
	if !errors.Is(err, memo.ErrEngineFault) {
		t.Fatalf("err = %v, want ErrEngineFault", err)
	}
	var fault *memo.EngineFault
	if !errors.As(err, &fault) {
		t.Fatalf("err %v is not an *EngineFault", err)
	}
	if fault.Cause == "" {
		t.Errorf("fault has no cause: %+v", fault)
	}
}

// The quarantine determinism tentpole: a warm start whose chains are
// corrupted in memory (injected bit flips after decode) with verification
// at 1.0 must self-heal to a Result bit-identical to the cold baseline —
// under every replacement policy on 129.compress, and under the unbounded
// policy on the other two suite workloads. Kind flips may instead be
// rejected at import (cold fallback), which heals trivially; payload flips
// reach the cache and must be caught by verification and quarantined.
func TestQuarantineDeterminismAllPolicies(t *testing.T) {
	unbounded := memo.Options{Policy: memo.PolicyUnbounded}
	cases := []struct {
		name, workload string
		mo             memo.Options
	}{
		{"unbounded", "129.compress", unbounded},
		{"flush", "129.compress", memo.Options{Policy: memo.PolicyFlush, Limit: 1 << 15}},
		{"gc", "129.compress", memo.Options{Policy: memo.PolicyGC, Limit: 1 << 15}},
		{"gengc", "129.compress", memo.Options{Policy: memo.PolicyGenGC, Limit: 1 << 15, MajorEvery: 2}},
		{"099.go/unbounded", "099.go", unbounded},
		{"107.mgrid/unbounded", "107.mgrid", unbounded},
	}
	progs := obsWorkloads(t)
	for _, tc := range cases {
		mo, p := tc.mo, progs[tc.workload]
		t.Run(tc.name, func(t *testing.T) {
			path, cold := writeSnapshot(t, tc.workload, mo)
			// A targeted flip: the first action of the import (the sorted-
			// first configuration's chain head) is corrupted, guaranteed.
			inj := faultinject.New(5, faultinject.Fault{Site: faultinject.SiteChainFlip, Nth: 1})

			cfg := DefaultConfig()
			cfg.Memo = mo
			cfg.Memo.VerifyRate = 1.0
			cfg.SnapshotLoad = path
			cfg.FaultInject = inj
			res, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("corrupted warm run must heal, got: %v", err)
			}
			if inj.Fired(faultinject.SiteChainFlip) == 0 {
				t.Fatalf("no chain flips fired; the scenario tested nothing")
			}
			healed := res.Snapshot.Warning != "" || // import rejected the flips: cold fallback
				res.Memo.Quarantines > 0 // flips reached the cache and were convicted
			if res.Snapshot.Loaded && !healed && res.Memo.VerifyDivergences == 0 {
				// Under the limited policies the imported chain can be
				// evicted by the policy itself before its configuration is
				// revisited; then nothing needed healing, which is fine —
				// identity below is still the real assertion.
				t.Logf("flip fired but never replayed (benign)")
			}
			if mo.Policy == memo.PolicyUnbounded && !healed {
				// Nothing evicts chains under PolicyUnbounded, so the
				// corrupted head must actually be caught and quarantined.
				t.Errorf("unbounded: flip neither rejected at import nor quarantined (divergences=%d)",
					res.Memo.VerifyDivergences)
			}
			if !reflect.DeepEqual(cold, normalize(res)) {
				t.Errorf("self-healed Result differs from cold baseline (quarantines=%d, divergences=%d, warning=%q)",
					res.Memo.Quarantines, res.Memo.VerifyDivergences, res.Snapshot.Warning)
			}
		})
	}
}

// A run under a hard memory budget must stay within it (PeakBytes counts
// every allocation high-water mark), degrade gracefully instead of failing,
// and still produce the bit-identical Result — cold, and warm-started under
// full shadow verification. A snapshot that fits the budget is loaded; one
// that does not is refused (cold start with a warning), because importing
// it would break the bound before the guard could reclaim anything. The
// guard gauges must agree with the stats counters.
func TestChaosBudgetStaysWithin(t *testing.T) {
	p := obsWorkloads(t)["129.compress"]
	plain := chaosBaseline(t, "budget", "129.compress")

	const budget = 1 << 15
	big, _ := writeSnapshot(t, "129.compress", memo.DefaultOptions())
	fits, _ := writeSnapshot(t, "129.compress", memo.Options{Policy: memo.PolicyUnbounded, Budget: budget})
	for _, tc := range []struct {
		name   string
		load   string
		verify float64
		loaded bool
	}{
		{"cold", "", 0, false},
		{"warm-verify", fits, 1, true},
		{"warm-over-budget", big, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Memo.Budget = budget
			cfg.Memo.VerifyRate = tc.verify
			cfg.SnapshotLoad = tc.load
			o := obs.New(obs.Options{})
			cfg.Observer = o
			res, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("budgeted run: %v", err)
			}
			if res.Snapshot.Loaded != tc.loaded {
				t.Errorf("Snapshot.Loaded = %v, want %v (warning %q)", res.Snapshot.Loaded, tc.loaded, res.Snapshot.Warning)
			}
			if tc.load == big && !strings.Contains(res.Snapshot.Warning, "memo budget") {
				t.Errorf("over-budget snapshot warning = %q, want the memo budget named", res.Snapshot.Warning)
			}
			m := res.Memo
			if m.PeakBytes > budget {
				t.Errorf("PeakBytes %d exceeded budget %d", m.PeakBytes, budget)
			}
			if m.GuardPressure == 0 {
				t.Errorf("budget never pressured the guard (PeakBytes=%d); shrink the budget", m.PeakBytes)
			}
			if !reflect.DeepEqual(plain, normalize(res)) {
				t.Errorf("budgeted Result differs from unbudgeted baseline")
			}
			reg := o.Metrics()
			if got := reg.Value(obs.MetricGuardBudgetBytes); got != float64(budget) {
				t.Errorf("guard.budget_bytes gauge = %v, want %d", got, budget)
			}
			if got := reg.Value(obs.MetricGuardDegraded); got != float64(m.DegradedEpisodes) {
				t.Errorf("guard.degraded_episodes gauge = %v, stats say %d", got, m.DegradedEpisodes)
			}
			if got := reg.Value(obs.MetricMemoQuarantines); got != float64(m.Quarantines) {
				t.Errorf("memo.quarantine.count gauge = %v, stats say %d", got, m.Quarantines)
			}
		})
	}
}

// The full chaos preset — every site armed at once — across the suite
// workloads: each run must end in either a bit-identical self-healed Result
// or a typed error; a silently wrong statistic fails the test.
func TestChaosPresetNeverSilentlyWrong(t *testing.T) {
	for name := range obsWorkloads(t) {
		for _, seed := range []uint64{1, 7} {
			t.Run(name, func(t *testing.T) {
				p := obsWorkloads(t)[name]
				path, cold := writeSnapshot(t, name, memo.DefaultOptions())

				cfg := DefaultConfig()
				cfg.Memo.VerifyRate = 1.0 // chaos default: no unverified replay
				cfg.SnapshotLoad = path
				cfg.SnapshotSave = filepath.Join(t.TempDir(), "out.fsnap")
				cfg.FaultInject = faultinject.Chaos(seed)
				res, err := Run(p, cfg)
				if err != nil {
					if !errors.Is(err, memo.ErrEngineFault) && !errors.Is(err, faultinject.ErrInjected) &&
						!snapshot.IsTransient(err) {
						t.Fatalf("untyped chaos error: %v", err)
					}
					return // typed error: acceptable outcome
				}
				if !reflect.DeepEqual(cold, normalize(res)) {
					t.Errorf("SILENT DIVERGENCE under chaos seed %d", seed)
				}
			})
		}
	}
}
