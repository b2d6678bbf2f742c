package cachesim

import (
	"math/rand"
	"strings"
	"testing"
)

// complete drives a load at lQ index 0 to completion, returning total
// latency.
func complete(t *testing.T, c *Cache, addr uint32, now uint64) int {
	t.Helper()
	d := c.LoadRequest(0, addr, now)
	total := d
	at := now + uint64(d)
	for i := 0; ; i++ {
		if i > 10 {
			t.Fatal("load did not complete within 10 polls")
		}
		ready, d := c.LoadPoll(0, at)
		if ready {
			return total
		}
		total += d
		at += uint64(d)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(DefaultConfig())
	cfg := DefaultConfig()
	// Cold: L1 miss + L2 miss -> full memory path.
	lat := complete(t, c, 0x1000, 0)
	wantCold := cfg.L1MissLat + cfg.MemLat + cfg.BusBeats
	if lat != wantCold {
		t.Errorf("cold latency = %d, want %d", lat, wantCold)
	}
	// Now it must hit in L1.
	lat = complete(t, c, 0x1000, 1000)
	if lat != cfg.L1HitLat {
		t.Errorf("hit latency = %d, want %d", lat, cfg.L1HitLat)
	}
	s := c.Stats()
	if s.L1Hits != 1 || s.L1Misses != 1 || s.L2Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameLineDifferentWordHits(t *testing.T) {
	c := New(DefaultConfig())
	complete(t, c, 0x2000, 0)
	lat := complete(t, c, 0x2000+8, 1000) // same 32-byte line
	if lat != DefaultConfig().L1HitLat {
		t.Errorf("same-line latency = %d", lat)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// L1: 16KiB 2-way, 32B lines -> 256 sets; addresses 32KiB apart with the
	// same set index conflict. Fill a set with 2 lines, then a third.
	a, b, d := uint32(0x0000), uint32(0x0000+16<<10/2*2), uint32(0x10000)
	// choose three addresses mapping to the same L1 set: stride = sets*line = 8KiB
	a, b, d = 0x0, 0x2000, 0x4000
	complete(t, c, a, 0)
	complete(t, c, b, 1000)
	complete(t, c, d, 2000) // evicts a from L1 (LRU)
	// a should now miss L1 but hit L2.
	lat := complete(t, c, a, 3000)
	want := cfg.L1MissLat + cfg.L2HitExtra
	if lat != want {
		t.Errorf("L2 hit latency = %d, want %d", lat, want)
	}
	s := c.Stats()
	if s.L2Hits != 1 {
		t.Errorf("L2 hits = %d", s.L2Hits)
	}
}

func TestIntervalProtocolTwoStage(t *testing.T) {
	// An L2 miss must be revealed in stages: first the L1-miss interval,
	// then the memory interval — the paper's two-call example.
	c := New(DefaultConfig())
	cfg := DefaultConfig()
	d1 := c.LoadRequest(5, 0x3000, 0)
	if d1 != cfg.L1MissLat {
		t.Fatalf("first interval = %d, want %d", d1, cfg.L1MissLat)
	}
	ready, d2 := c.LoadPoll(5, uint64(d1))
	if ready {
		t.Fatal("ready too early")
	}
	if d2 != cfg.MemLat+cfg.BusBeats {
		t.Errorf("second interval = %d, want %d", d2, cfg.MemLat+cfg.BusBeats)
	}
	ready, _ = c.LoadPoll(5, uint64(d1+d2))
	if !ready {
		t.Error("not ready after full wait")
	}
}

func TestEarlyPollReturnsRemainder(t *testing.T) {
	c := New(DefaultConfig())
	d := c.LoadRequest(9, 0x4000, 0)
	ready, rem := c.LoadPoll(9, uint64(d-3))
	if ready || rem != 3 {
		t.Errorf("early poll = %v/%d, want false/3", ready, rem)
	}
	c.Cancel(9)
}

func TestBusContentionSerializesMisses(t *testing.T) {
	// Two simultaneous L2 misses must not overlap on the bus: the second
	// completes later than the first.
	c := New(DefaultConfig())
	d1 := c.LoadRequest(1, 0x10000, 0)
	d2 := c.LoadRequest(2, 0x20000, 0)
	_, m1 := c.LoadPoll(1, uint64(d1))
	_, m2 := c.LoadPoll(2, uint64(d2))
	if d1+m1 >= d2+m2 {
		t.Errorf("second miss (%d) must finish after first (%d)", d2+m2, d1+m1)
	}
	if m2 <= m1 {
		t.Errorf("bus contention not visible: m1=%d m2=%d", m1, m2)
	}
}

func TestMSHRPressureDelaysRequests(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Issue more concurrent L1 misses than MSHRs; later ones must see a
	// longer first interval.
	var firstDelays []int
	for i := 0; i < cfg.MSHRs+4; i++ {
		d := c.LoadRequest(i, uint32(0x100000+i*0x1000), 0)
		firstDelays = append(firstDelays, d)
	}
	if firstDelays[0] != cfg.L1MissLat {
		t.Errorf("first = %d", firstDelays[0])
	}
	if firstDelays[cfg.MSHRs] <= firstDelays[0] {
		t.Errorf("MSHR-full request not delayed: %v", firstDelays)
	}
}

func TestStoreWriteAllocateAndWriteback(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Store to a cold line: L2 write-allocate.
	c.Store(0x5000, 0)
	s := c.Stats()
	if s.Stores != 1 || s.StoreL2Hit != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Store again: L2 hit, line dirty.
	c.Store(0x5004, 10)
	if c.Stats().StoreL2Hit != 1 {
		t.Error("second store should hit L2")
	}
	// Force eviction of the dirty line from L2 by filling its set.
	// L2: 1MiB 2-way 32B lines -> 16384 sets, stride = 512KiB.
	c.Store(0x5000+512<<10, 100)
	c.Store(0x5000+2*(512<<10), 200)
	if c.Stats().Writebacks == 0 {
		t.Error("dirty eviction did not write back")
	}
}

func TestLoadSeesDirtyStoreLineInL2(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	c.Store(0x6000, 0)
	// Load from the stored line: L1 miss (no-write-allocate L1), L2 hit.
	lat := complete(t, c, 0x6000, 100)
	if lat != cfg.L1MissLat+cfg.L2HitExtra {
		t.Errorf("latency = %d, want L2 hit %d", lat, cfg.L1MissLat+cfg.L2HitExtra)
	}
}

func TestCancel(t *testing.T) {
	c := New(DefaultConfig())
	c.LoadRequest(300, 0x7000, 0)
	if c.Outstanding() != 1 {
		t.Fatal("not outstanding")
	}
	c.Cancel(300)
	if c.Outstanding() != 0 || c.Stats().Cancels != 1 {
		t.Error("cancel failed")
	}
	c.Cancel(300) // double cancel is a no-op
	if c.Stats().Cancels != 1 {
		t.Error("double cancel counted")
	}
}

func TestPollUnknownPanics(t *testing.T) {
	c := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	c.LoadPoll(99, 0)
}

// refused runs f and returns the RequestError it panics with, failing the
// test if it does not panic with one.
func refused(t *testing.T, f func()) (err RequestError) {
	t.Helper()
	defer func() {
		r := recover()
		var ok bool
		if err, ok = r.(RequestError); !ok {
			t.Fatalf("panic value %#v, want a RequestError", r)
		}
	}()
	f()
	return ""
}

func TestPollOfAliasedIndexRefused(t *testing.T) {
	// Index i+256 shares i's slot; a bare masked table would poll i's
	// request under the wrong name.
	c := New(DefaultConfig())
	complete(t, c, 0x1000, 0) // warm the line: the next load hits L1
	c.LoadRequest(7, 0x1000, 0)
	err := refused(t, func() { c.LoadPoll(7+tableSize, 100) })
	if !strings.Contains(string(err), "poll of load 263") {
		t.Errorf("refusal = %q", err)
	}
	if ready, _ := c.LoadPoll(7, 100); !ready || c.Outstanding() != 0 {
		t.Error("refused poll disturbed the live request")
	}
}

func TestIssueIntoLiveSlotRefused(t *testing.T) {
	c := New(DefaultConfig())
	complete(t, c, 0x1000, 0) // warm the line: the next load hits L1
	c.LoadRequest(3, 0x1000, 0)
	err := refused(t, func() { c.LoadRequest(3+tableSize, 0x2000, 1) })
	if !strings.Contains(string(err), "slot of live load 3") {
		t.Errorf("refusal = %q", err)
	}
	if c.Outstanding() != 1 || c.Stats().Loads != 2 {
		t.Errorf("refused issue changed state: outstanding %d, loads %d",
			c.Outstanding(), c.Stats().Loads)
	}
	// Once 3 completes its slot is free for 3+256.
	if ready, _ := c.LoadPoll(3, 1000); !ready {
		t.Fatal("load 3 not ready")
	}
	c.LoadRequest(3+tableSize, 0x2000, 1000)
	if c.Outstanding() != 1 {
		t.Errorf("outstanding = %d, want 1", c.Outstanding())
	}
}

func TestReissueReplacesLiveRequest(t *testing.T) {
	c := New(DefaultConfig())
	c.LoadRequest(4, 0x1000, 0) // cold: memory path
	d := c.LoadRequest(4, 0x1000, 0)
	if c.Outstanding() != 1 {
		t.Errorf("outstanding = %d, want 1", c.Outstanding())
	}
	if want := DefaultConfig().L1MissLat; d != want {
		t.Errorf("reissue interval = %d, want %d", d, want)
	}
}

func TestCancelOfNonLiveIndexNotCounted(t *testing.T) {
	c := New(DefaultConfig())
	c.Cancel(12) // never issued
	c.LoadRequest(12, 0x1000, 0)
	c.Cancel(12 + tableSize) // same slot, different index
	if c.Outstanding() != 1 || c.Stats().Cancels != 0 {
		t.Errorf("outstanding %d, cancels %d; want 1, 0", c.Outstanding(), c.Stats().Cancels)
	}
}

// drain is the interval-protocol loop that blocking timing models ran
// before Access: issue, then poll at each returned interval until ready.
func drain(c *Cache, addr uint32, now uint64) int {
	total := c.LoadRequest(0, addr, now)
	at := now + uint64(total)
	for {
		ready, d := c.LoadPoll(0, at)
		if ready {
			return total
		}
		total += d
		at += uint64(d)
	}
}

func TestAccessMatchesDrainLoop(t *testing.T) {
	a, b := New(DefaultConfig()), New(DefaultConfig())
	r := rand.New(rand.NewSource(11))
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		addr := uint32(r.Intn(1<<20)) &^ 3
		if r.Intn(4) == 0 {
			a.Store(addr, now)
			b.Store(addr, now)
		} else if got, want := a.Access(addr, now), drain(b, addr, now); got != want {
			t.Fatalf("access %d at %#x: latency %d, drain loop %d", i, addr, got, want)
		}
		now += uint64(r.Intn(30))
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged:\n access %+v\n drain  %+v", a.Stats(), b.Stats())
	}
	if a.Outstanding() != 0 {
		t.Errorf("Access left %d requests outstanding", a.Outstanding())
	}
}

func TestDeterminism(t *testing.T) {
	// The same call sequence must produce identical intervals — the
	// property the memoization layer depends on.
	run := func() []int {
		c := New(DefaultConfig())
		r := rand.New(rand.NewSource(7))
		var out []int
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			addr := uint32(r.Intn(1<<18)) &^ 3
			if r.Intn(3) == 0 {
				c.Store(addr, now)
			} else {
				lat := 0
				d := c.LoadRequest(i, addr, now)
				lat += d
				at := now + uint64(d)
				for {
					ready, d2 := c.LoadPoll(i, at)
					if ready {
						break
					}
					lat += d2
					at += uint64(d2)
				}
				out = append(out, lat)
			}
			now += uint64(r.Intn(20))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestHitRateOnLoopWorkingSet(t *testing.T) {
	// A working set smaller than L1 must converge to ~100% hits.
	c := New(DefaultConfig())
	now := uint64(0)
	for pass := 0; pass < 4; pass++ {
		for a := uint32(0); a < 8<<10; a += 4 {
			lat := complete(t, c, a, now)
			now += uint64(lat)
		}
	}
	s := c.Stats()
	hitRate := float64(s.L1Hits) / float64(s.Loads)
	if hitRate < 0.9 {
		t.Errorf("hit rate = %.3f, want > 0.9", hitRate)
	}
}

func TestIntervalsMonotoneNonNegative(t *testing.T) {
	c := New(DefaultConfig())
	r := rand.New(rand.NewSource(99))
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		addr := uint32(r.Intn(1<<20)) &^ 3
		d := c.LoadRequest(i, addr, now)
		if d < 0 {
			t.Fatalf("negative interval %d", d)
		}
		at := now + uint64(d)
		for {
			ready, d2 := c.LoadPoll(i, at)
			if ready {
				break
			}
			if d2 <= 0 {
				t.Fatalf("non-positive continuation interval %d", d2)
			}
			at += uint64(d2)
		}
		now += uint64(r.Intn(5))
	}
}

func TestAlternateGeometries(t *testing.T) {
	// Direct-mapped tiny L1, 4-way larger L2, 64-byte lines: the model
	// must respect every geometry, not just the paper's defaults.
	cfg := Config{
		L1Size: 1 << 10, L1Assoc: 1,
		L2Size: 64 << 10, L2Assoc: 4,
		Line: 64, MSHRs: 4,
		L1HitLat: 1, L1MissLat: 3, L2HitExtra: 5, MemLat: 30, BusBeats: 8,
	}
	c := New(cfg)
	// Direct-mapped conflicts: two addresses one L1-size apart always evict
	// each other.
	a, b := uint32(0), uint32(1<<10)
	complete(t, c, a, 0)
	complete(t, c, b, 100)
	lat := complete(t, c, a, 200) // must have been evicted by b
	if lat == cfg.L1HitLat {
		t.Errorf("direct-mapped conflict not modelled: latency %d", lat)
	}
	// 64-byte line: two words 32 bytes apart share a line.
	complete(t, c, 0x8000, 300)
	if lat := complete(t, c, 0x8000+32, 400); lat != cfg.L1HitLat {
		t.Errorf("64B line sharing: latency %d, want %d", lat, cfg.L1HitLat)
	}
}

func TestFourWaySurvivesThreeConflicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Size = 64 << 10
	cfg.L2Assoc = 4
	c := New(cfg)
	// Four L2 addresses in the same set (stride = size/assoc): all must
	// coexist in a 4-way set.
	stride := uint32(cfg.L2Size / cfg.L2Assoc)
	now := uint64(0)
	for i := uint32(0); i < 4; i++ {
		lat := complete(t, c, i*stride, now)
		now += uint64(lat) + 10
	}
	for i := uint32(0); i < 4; i++ {
		lat := complete(t, c, i*stride, now)
		now += uint64(lat) + 10
		want := cfg.L1MissLat + cfg.L2HitExtra // L1 also conflicts (2-way)
		if i >= 2 && lat > want {
			t.Errorf("way %d evicted from 4-way L2: latency %d", i, lat)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count accepted")
		}
	}()
	New(Config{L1Size: 3000, L1Assoc: 2, L2Size: 1 << 20, L2Assoc: 2, Line: 32, MSHRs: 8,
		L1HitLat: 1, L1MissLat: 2, L2HitExtra: 3, MemLat: 10, BusBeats: 2})
}
