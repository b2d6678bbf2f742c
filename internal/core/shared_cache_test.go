package core

import (
	"reflect"
	"testing"

	"fastsim/internal/memo"
)

// sharedNormalize extends normalize to the shared-cache status: sharing
// legitimately changes Memo accounting and the Shared report, never the
// simulation Result.
func sharedNormalize(r *Result) *Result {
	c := normalize(r)
	c.Shared = SharedStatus{}
	return c
}

// TestSharedCacheWarmBitIdentical is the shared-cache core invariant: a run
// warmed from a neighbour's published graph produces a Result bit-identical
// to a cold run, while its memoization accounting shows the warming (fewer
// detailed instructions, replay from the first episode).
func TestSharedCacheWarmBitIdentical(t *testing.T) {
	progs := obsWorkloads(t)
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			cold, err := Run(p, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}

			sc := memo.NewShared()
			cfg := DefaultConfig()
			cfg.Shared = sc
			first, err := Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Shared.Attached || first.Shared.Warmed {
				t.Fatalf("first tenant: %+v", first.Shared)
			}
			if !first.Shared.Published {
				t.Fatal("first tenant did not publish")
			}

			cfg2 := DefaultConfig()
			cfg2.Shared = sc
			second, err := Run(p, cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if !second.Shared.Warmed {
				t.Fatal("second tenant did not warm from the published graph")
			}
			// Memo stats are cumulative across warm starts (the imported
			// graph carries its history), so the second tenant's own
			// recording effort is the delta over the first run's totals.
			newDetailed := second.Memo.DetailedInsts - first.Memo.DetailedInsts
			if newDetailed >= first.Memo.DetailedInsts {
				t.Errorf("warming not observable: second tenant recorded %d new detailed insts, first recorded %d",
					newDetailed, first.Memo.DetailedInsts)
			}
			if second.Memo.ReplayInsts <= first.Memo.ReplayInsts {
				t.Errorf("second tenant replayed nothing: replay insts %d -> %d",
					first.Memo.ReplayInsts, second.Memo.ReplayInsts)
			}

			for i, r := range []*Result{first, second} {
				if !reflect.DeepEqual(sharedNormalize(cold), sharedNormalize(r)) {
					t.Errorf("tenant %d diverged from the cold run", i+1)
				}
			}
			st := sc.Stats()
			if st.Warm != 1 || st.Publishes == 0 {
				t.Errorf("shared stats: %+v", st)
			}
		})
	}
}

// TestSharedCacheQuarantinePoisons corrupts a published graph in place (the
// model of shared-memory rot past every checksum) and proves the quarantine
// propagates: the verifying tenant heals itself bit-identically, poisons
// the epoch, and the next tenant acquires nothing — the corrupt chain is
// never replayed by a neighbour.
func TestSharedCacheQuarantinePoisons(t *testing.T) {
	p := obsWorkloads(t)["129.compress"]
	cold, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	sc := memo.NewShared()
	cfg := DefaultConfig()
	cfg.Shared = sc
	if _, err := Run(p, cfg); err != nil {
		t.Fatal(err)
	}

	fp := Fingerprint(p, &cfg)
	g, _ := sc.Acquire(fp)
	if g == nil {
		t.Fatal("nothing published")
	}
	// Flip payload bits in a few actions; only shadow verification can see
	// payload corruption, so run the victim fully verified.
	flips := 0
	for i := range g.Actions {
		if i%97 == 5 && g.Actions[i].Kind == 0 { // advance: flip a cycle bit
			g.Actions[i].Cycles ^= 1
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("no actions corrupted; test is vacuous")
	}

	vcfg := DefaultConfig()
	vcfg.Shared = sc
	vcfg.Memo.VerifyRate = 1
	victim, err := Run(p, vcfg)
	if err != nil {
		t.Fatalf("victim run failed instead of healing: %v", err)
	}
	if victim.Memo.Quarantines == 0 {
		t.Fatal("corruption went undetected; test is vacuous")
	}
	if !victim.Shared.Poisoned || victim.Shared.Published {
		t.Fatalf("victim did not poison its base epoch: %+v", victim.Shared)
	}
	if !reflect.DeepEqual(sharedNormalize(cold), sharedNormalize(victim)) {
		t.Error("victim healed to a different Result")
	}

	if g2, _ := sc.Acquire(fp); g2 != nil {
		t.Error("poisoned graph still published to neighbours")
	}
	// The next clean tenant re-records and re-publishes.
	ncfg := DefaultConfig()
	ncfg.Shared = sc
	next, err := Run(p, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	if next.Shared.Warmed {
		t.Error("tenant after poison warm-started from a dropped graph")
	}
	if !next.Shared.Published {
		t.Error("tenant after poison did not republish")
	}
}

// TestSharedCacheSnapshotPrecedence: a run given an explicit snapshot file
// ignores the shared cache entirely.
func TestSharedCacheSnapshotPrecedence(t *testing.T) {
	p := obsWorkloads(t)["129.compress"]
	dir := t.TempDir()
	sc := memo.NewShared()
	cfg := DefaultConfig()
	cfg.Shared = sc
	cfg.SnapshotSave = dir + "/a.fsnap"
	cfg.SnapshotLoad = dir + "/a.fsnap"
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shared.Attached {
		t.Errorf("shared cache participated despite SnapshotLoad: %+v", res.Shared)
	}
	if st := sc.Stats(); st.Acquires != 0 || st.Publishes != 0 {
		t.Errorf("shared cache touched: %+v", st)
	}
}
