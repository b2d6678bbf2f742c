package memo

import (
	"sync"
	"testing"
)

// graphN builds a minimal structurally valid graph with n advance actions
// in one chain — enough for the publication tie-breaks, which compare
// action counts only.
func graphN(n int) *Graph {
	g := &Graph{Keys: []string{"k"}, First: []int64{0}}
	for i := 0; i < n; i++ {
		ga := GraphAction{Kind: uint8(actAdvance), Cycles: 1, Next: int64(i + 1), NextCfg: -1}
		if i == n-1 {
			ga.Next = -1
		}
		g.Actions = append(g.Actions, ga)
	}
	if n == 0 {
		g.First[0] = -1
	}
	return g
}

func TestSharedPublishAcquire(t *testing.T) {
	sc := NewShared(4)
	const fp = 0xfeed

	// Empty entry: cold acquire.
	if g, ep := sc.Acquire(fp); g != nil || ep != 0 {
		t.Fatalf("cold acquire = (%v, %d), want (nil, 0)", g, ep)
	}

	// First publish from a cold base.
	ep1, ok := sc.Publish(fp, graphN(3), 0)
	if !ok || ep1 != 1 {
		t.Fatalf("first publish = (%d, %v), want (1, true)", ep1, ok)
	}
	g, ep := sc.Acquire(fp)
	if g == nil || len(g.Actions) != 3 || ep != ep1 {
		t.Fatalf("acquire after publish = (%v, %d)", g, ep)
	}

	// A run that built on the current epoch always publishes.
	ep2, ok := sc.Publish(fp, graphN(4), ep1)
	if !ok || ep2 != ep1+1 {
		t.Fatalf("on-epoch publish = (%d, %v)", ep2, ok)
	}

	// A stale run (acquired ep1, neighbour already published ep2) only
	// wins by strict growth.
	if _, ok := sc.Publish(fp, graphN(4), ep1); ok {
		t.Error("stale publish with equal action count was accepted")
	}
	if _, ok := sc.Publish(fp, graphN(9), ep1); !ok {
		t.Error("stale publish with strict growth was rejected")
	}

	st := sc.Stats()
	if st.Publishes != 3 || st.Rejects != 1 || st.Published != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSharedPoisonFence(t *testing.T) {
	sc := NewShared(1)
	const fp = 0xbad

	ep1, _ := sc.Publish(fp, graphN(5), 0)
	_, base := sc.Acquire(fp) // tenant A imports ep1

	// Tenant B (also on ep1) quarantines: the published graph is dropped.
	if !sc.Poison(fp, base) {
		t.Fatal("poison of the live epoch dropped nothing")
	}
	if g, _ := sc.Acquire(fp); g != nil {
		t.Fatal("poisoned graph still acquirable")
	}

	// Tenant A's publish descends from the poisoned graph: fenced.
	if _, ok := sc.Publish(fp, graphN(50), base); ok {
		t.Error("publish with poisoned lineage was accepted")
	}
	// Double poison of the same lineage is a no-op.
	if sc.Poison(fp, ep1) {
		t.Error("second poison of the same lineage reported a drop")
	}

	// A tenant that acquired after the poison republishes cleanly.
	_, fresh := sc.Acquire(fp)
	if _, ok := sc.Publish(fp, graphN(2), fresh); !ok {
		t.Error("post-poison publish with a fresh base was rejected")
	}
	if g, _ := sc.Acquire(fp); g == nil || len(g.Actions) != 2 {
		t.Error("recovered entry not acquirable")
	}

	if st := sc.Stats(); st.Poisons != 1 {
		t.Errorf("poisons = %d, want 1", st.Poisons)
	}
}

// Poisoning a fingerprint that never published fences cold republication of
// the poisoning run's own chains.
func TestSharedPoisonColdEntry(t *testing.T) {
	sc := NewShared(2)
	if sc.Poison(7, 0) {
		t.Error("poison of an absent entry reported a drop")
	}
	if _, ok := sc.Publish(7, graphN(1), 0); ok {
		t.Error("publish under a cold poison fence was accepted")
	}
}

func TestSharedNilSafe(t *testing.T) {
	var sc *SharedCache
	if g, ep := sc.Acquire(1); g != nil || ep != 0 {
		t.Error("nil Acquire not inert")
	}
	if _, ok := sc.Publish(1, graphN(1), 0); ok {
		t.Error("nil Publish not inert")
	}
	if sc.Poison(1, 0) {
		t.Error("nil Poison not inert")
	}
	if st := sc.Stats(); st != (SharedStats{}) {
		t.Error("nil Stats not zero")
	}
}

// TestSharedConcurrent hammers one SharedCache from many goroutines under
// -race: interleaved acquire/publish/poison across overlapping fingerprints
// must never race or deadlock, and the final state must be coherent (every
// published graph reachable, counters add up).
func TestSharedConcurrent(t *testing.T) {
	sc := NewShared(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := uint64(i % 5)
				g, base := sc.Acquire(fp)
				n := 1
				if g != nil {
					n = len(g.Actions) + 1
				}
				if i%37 == 36 {
					sc.Poison(fp, base)
					continue
				}
				sc.Publish(fp, graphN(n), base)
			}
		}(w)
	}
	wg.Wait()
	st := sc.Stats()
	if st.Acquires != 8*200 {
		t.Errorf("acquires = %d, want %d", st.Acquires, 8*200)
	}
	if st.Entries == 0 || st.Publishes == 0 {
		t.Errorf("vacuous run: %+v", st)
	}
}

// A published graph must round-trip through ImportGraph — the same contract
// the snapshot layer relies on — so a tenant can import what another
// exported.
func TestSharedGraphImportable(t *testing.T) {
	sc := NewShared(1)
	if _, ok := sc.Publish(1, graphN(4), 0); !ok {
		t.Fatal("publish failed")
	}
	g, _ := sc.Acquire(1)
	c := NewCache(Options{})
	if err := c.ImportGraph(g); err != nil {
		t.Fatalf("imported published graph rejected: %v", err)
	}
	if c.Len() != 1 {
		t.Errorf("imported %d configs, want 1", c.Len())
	}
}
