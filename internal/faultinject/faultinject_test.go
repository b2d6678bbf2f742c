package faultinject

import (
	"errors"
	"syscall"
	"testing"
)

// A nil injector is inert on every method.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Fire(SiteMemoAlloc) {
		t.Error("nil injector fired")
	}
	if err := in.Transient(SiteSnapshotRead); err != nil {
		t.Errorf("nil injector returned %v", err)
	}
	data := []byte{1, 2, 3, 4}
	if got := in.Truncate(SiteSnapshotTrunc, data); len(got) != 4 {
		t.Errorf("nil injector truncated to %d bytes", len(got))
	}
	if in.Seen(SiteMemoAlloc) != 0 || in.Fired(SiteMemoAlloc) != 0 || in.FiredTotal() != 0 {
		t.Error("nil injector reported activity")
	}
	if in.Summary() != "faultinject: disabled" {
		t.Errorf("Summary = %q", in.Summary())
	}
}

// An unarmed site never fires and consumes nothing.
func TestUnarmedSite(t *testing.T) {
	in := New(1, Fault{Site: SiteMemoAlloc, Nth: 1})
	for i := 0; i < 100; i++ {
		if in.Fire(SiteSnapshotRead) {
			t.Fatal("unarmed site fired")
		}
	}
	if in.Seen(SiteSnapshotRead) != 0 {
		t.Errorf("unarmed site consumed %d occurrences", in.Seen(SiteSnapshotRead))
	}
}

// Nth fires on exactly that occurrence.
func TestNthFiresOnce(t *testing.T) {
	in := New(7, Fault{Site: SiteMemoAlloc, Nth: 5})
	for i := 1; i <= 20; i++ {
		fired := in.Fire(SiteMemoAlloc)
		if fired != (i == 5) {
			t.Fatalf("occurrence %d: fired=%v", i, fired)
		}
	}
	if in.Fired(SiteMemoAlloc) != 1 || in.Seen(SiteMemoAlloc) != 20 {
		t.Errorf("fired=%d seen=%d, want 1/20", in.Fired(SiteMemoAlloc), in.Seen(SiteMemoAlloc))
	}
}

// Rate 1 with Times fires on exactly the first Times occurrences.
func TestRateWithTimesCap(t *testing.T) {
	in := New(3, Fault{Site: SiteSnapshotRead, Rate: 1, Times: 2})
	var fired []int
	for i := 1; i <= 10; i++ {
		if in.Fire(SiteSnapshotRead) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("fired at %v, want [1 2]", fired)
	}
}

// The decision stream is a pure function of (seed, site, occurrence).
func TestDeterministicAcrossInjectors(t *testing.T) {
	mk := func() *Injector {
		return New(99, Fault{Site: SiteChainFlip, Rate: 0.25}, Fault{Site: SiteMemoAlloc, Rate: 0.5})
	}
	a, b := mk(), mk()
	for i := 0; i < 4096; i++ {
		av, af := a.FireValue(SiteChainFlip)
		bv, bf := b.FireValue(SiteChainFlip)
		if av != bv || af != bf {
			t.Fatalf("occurrence %d diverged: (%x,%v) vs (%x,%v)", i, av, af, bv, bf)
		}
		if a.Fire(SiteMemoAlloc) != b.Fire(SiteMemoAlloc) {
			t.Fatalf("alloc occurrence %d diverged", i)
		}
	}
	if a.Fired(SiteChainFlip) == 0 {
		t.Error("rate 0.25 never fired in 4096 occurrences")
	}
	// The values are pinned: a change to the site hash or the mixer would
	// move every recorded chaos outcome.
	e := New(99, Fault{Site: SiteChainFlip, Rate: 0.25})
	for i, want := range []uint64{0xdc65baccaef0d611, 0xcb57c2f81e73be70, 0x97b138cb91182b1c} {
		if v, _ := e.FireValue(SiteChainFlip); v != want {
			t.Errorf("occurrence %d value %#x, want %#x", i+1, v, want)
		}
	}
	// A different seed produces a different firing pattern.
	c, d := New(99, Fault{Site: SiteChainFlip, Rate: 0.25}), New(100, Fault{Site: SiteChainFlip, Rate: 0.25})
	same := true
	for i := 0; i < 4096; i++ {
		if c.Fire(SiteChainFlip) != d.Fire(SiteChainFlip) {
			same = false
		}
	}
	if same {
		t.Error("seeds 99 and 100 produced identical firing patterns")
	}
}

// Injected IO errors match ErrInjected and nothing else: in particular not
// EINTR, which a caller might mistake for a real interrupted syscall.
func TestTransientErrorClassification(t *testing.T) {
	in := New(5, Fault{Site: SiteSnapshotWrite, Rate: 1, Times: 1})
	err := in.Transient(SiteSnapshotWrite)
	if err == nil {
		t.Fatal("armed transient site returned nil")
	}
	if errors.Is(err, syscall.EINTR) {
		t.Errorf("error %v claims to be EINTR", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("error %v is not ErrInjected", err)
	}
	if err := in.Transient(SiteSnapshotWrite); err != nil {
		t.Errorf("Times=1 site fired twice: %v", err)
	}
}

// Failure panics match ErrInjected.
func TestFailureIsInjected(t *testing.T) {
	f := Failure{Site: SiteMemoAlloc, N: 3}
	if !errors.Is(f, ErrInjected) {
		t.Error("Failure is not ErrInjected")
	}
	if f.Error() == "" {
		t.Error("empty Failure message")
	}
}

// Truncate halves the payload when it fires.
func TestTruncate(t *testing.T) {
	in := New(1, Fault{Site: SiteSnapshotTrunc, Nth: 2})
	data := make([]byte, 100)
	if got := in.Truncate(SiteSnapshotTrunc, data); len(got) != 100 {
		t.Errorf("occurrence 1 truncated to %d", len(got))
	}
	if got := in.Truncate(SiteSnapshotTrunc, data); len(got) != 50 {
		t.Errorf("occurrence 2 gave %d bytes, want 50", len(got))
	}
}

// Summary lists armed sites in the canonical order.
func TestSummary(t *testing.T) {
	in := New(2, Fault{Site: SiteSnapshotRead, Rate: 1, Times: 1}, Fault{Site: SiteMemoAlloc, Nth: 1})
	in.Fire(SiteMemoAlloc)
	in.Fire(SiteSnapshotRead)
	want := "faultinject: memo.alloc=1/1 snapshot.read=1/1"
	if got := in.Summary(); got != want {
		t.Errorf("Summary = %q, want %q", got, want)
	}
	if New(1).Summary() != "faultinject: no sites armed" {
		t.Errorf("empty Summary = %q", New(1).Summary())
	}
}

// The server sites are part of the catalog, deterministic like every other
// site, and their injected IO error is typed as injected.
func TestServerSites(t *testing.T) {
	all := Sites()
	for _, want := range []Site{SiteJournalWrite, SiteServerAccept} {
		found := false
		for _, s := range all {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Sites() is missing %s", want)
		}
	}
	in := New(9, Fault{Site: SiteJournalWrite, Nth: 2}, Fault{Site: SiteServerAccept, Rate: 1, Times: 1})
	if err := in.Transient(SiteJournalWrite); err != nil {
		t.Errorf("occurrence 1 fired early: %v", err)
	}
	err := in.Transient(SiteJournalWrite)
	if err == nil {
		t.Fatal("occurrence 2 did not fire")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("journal fault is not an injected error: %v", err)
	}
	if !in.Fire(SiteServerAccept) {
		t.Error("accept site with Rate 1 did not fire")
	}
	if in.Fire(SiteServerAccept) {
		t.Error("accept site fired past Times=1")
	}
	// Equal seeds reproduce the exact same decisions.
	a, b := New(42, Fault{Site: SiteServerAccept, Rate: 0.5}), New(42, Fault{Site: SiteServerAccept, Rate: 0.5})
	for i := 0; i < 64; i++ {
		if a.Fire(SiteServerAccept) != b.Fire(SiteServerAccept) {
			t.Fatalf("occurrence %d diverged between equal seeds", i+1)
		}
	}
}
