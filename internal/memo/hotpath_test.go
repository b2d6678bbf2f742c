package memo

import (
	"fmt"
	"testing"
)

func TestConfigTableFindInsertGrow(t *testing.T) {
	tab := newConfigTable(0)
	if len(tab.buckets) != tableMinBuckets {
		t.Fatalf("initial buckets = %d, want %d", len(tab.buckets), tableMinBuckets)
	}
	const n = 500 // forces several grows past the 2x load factor
	cfgs := make([]*config, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		h := hashKey(key)
		if find(tab, key, h) != nil {
			t.Fatalf("phantom hit for %q", key)
		}
		cf := &config{key: string(key), hash: h}
		tab.insert(cf)
		cfgs[i] = cf
	}
	if tab.n != n {
		t.Fatalf("n = %d, want %d", tab.n, n)
	}
	if len(tab.buckets) <= tableMinBuckets {
		t.Fatalf("table never grew: %d buckets for %d entries", len(tab.buckets), n)
	}
	for i, cf := range cfgs {
		key := []byte(cf.key)
		if got := find(tab, key, hashKey(key)); got != cf {
			t.Fatalf("entry %d lost after grow: got %v", i, got)
		}
		if got := find(tab, cf.key, cf.hash); got != cf {
			t.Fatalf("interned-key find mismatch for entry %d", i)
		}
	}
	if find(tab, []byte("absent"), hashKey([]byte("absent"))) != nil {
		t.Error("phantom hit after grow")
	}
	// A raw-key probe must not allocate: it runs at every episode boundary.
	key := []byte(cfgs[n/2].key)
	if allocs := testing.AllocsPerRun(100, func() { find(tab, key, hashKey(key)) }); allocs != 0 {
		t.Errorf("find allocates %v times per probe", allocs)
	}
}

func TestConfigTableHashConsistency(t *testing.T) {
	for _, s := range []string{"", "a", "key-0042", "\x00\xff\x00"} {
		if hashKey([]byte(s)) != hashKey(s) {
			t.Errorf("hashKey disagrees on %q as bytes and as a string", s)
		}
	}
}

// TestConfigTableEachDeterministic: two tables built by the same insertion
// sequence must iterate identically — there is no per-process seed.
func TestConfigTableEachDeterministic(t *testing.T) {
	build := func() []string {
		tab := newConfigTable(0)
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("cfg-%03d", i*7%300)
			tab.insert(&config{key: key, hash: hashKey(key)})
		}
		var order []string
		tab.each(func(cf *config) { order = append(order, cf.key) })
		return order
	}
	a, b := build(), build()
	if len(a) != 300 || len(a) != len(b) {
		t.Fatalf("iteration lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestArenaAllocSweepReset(t *testing.T) {
	var ar actionArena
	const n = arenaSlabSize + arenaSlabSize/2 // spills into a second slab
	nodes := make([]*action, n)
	seen := make(map[*action]bool, n)
	for i := range nodes {
		a := ar.alloc()
		if seen[a] {
			t.Fatalf("alloc %d returned a live node", i)
		}
		seen[a] = true
		a.gen = uint32(i%2) + 1 // odd indices gen 2, even gen 1
		nodes[i] = a
	}
	if ar.slabCount() != 2 {
		t.Fatalf("slabs = %d, want 2", ar.slabCount())
	}

	// Sweep away gen-1 nodes: they are zeroed and recycled.
	ar.sweep(func(a *action) bool { return a.gen == 2 })
	if len(ar.free) != (n+1)/2 {
		t.Fatalf("free = %d, want %d", len(ar.free), (n+1)/2)
	}
	for i, a := range nodes {
		if i%2 == 1 && a.gen != 2 {
			t.Fatalf("kept node %d was clobbered", i)
		}
		if i%2 == 0 && (a.gen != 0 || a.next != nil) {
			t.Fatalf("dead node %d not zeroed", i)
		}
	}
	// New allocations reuse freed slots before growing a slab.
	reused := ar.alloc()
	if !seen[reused] {
		t.Error("alloc after sweep did not recycle a freed slot")
	}
	if ar.slabCount() != 2 {
		t.Errorf("slab grew despite free slots: %d", ar.slabCount())
	}

	ar.reset()
	if ar.slabCount() != 0 || len(ar.free) != 0 {
		t.Error("reset left slabs or free slots behind")
	}
}

// TestArenaPointerStability: nodes handed out earlier must stay valid as the
// slab fills (append must never reallocate a slab's backing array).
func TestArenaPointerStability(t *testing.T) {
	var ar actionArena
	first := ar.alloc()
	first.cycles = 42
	for i := 1; i < arenaSlabSize; i++ {
		ar.alloc()
	}
	if first.cycles != 42 || &ar.slabs[0][0] != first {
		t.Fatal("slab reallocated under a live pointer")
	}
}

// TestCollectEdgeOverflowAccounting is the regression test for the
// edge-overflow byte accounting: when clipping removes successors, the
// edgeExtraBytes charge reflects the surviving successor count.
func TestCollectEdgeOverflowAccounting(t *testing.T) {
	c := NewCache(Options{Policy: PolicyGC, Limit: 1})
	cfgA, _ := c.getOrCreate([]byte{0, 0, 0, 0, 0, 0})
	hub := c.newAction(actOutcome, 0)
	cfgA.first = hub
	targets := make([]*action, 6)
	for i := range targets {
		targets[i] = c.newAction(actAdvance, 0)
		c.addBytes(hub.setEdge(int64(i*10), targets[i]))
	}
	// Six successors: four charged edgeExtraBytes.

	// Age the successors labelled 0, 10, 40 and 50; keep 20 and 30 alive.
	// After collection two successors remain, so no overflow bytes may
	// remain charged.
	c.mark(cfgA)
	c.markAct(hub)
	targets[0].gen, targets[1].gen = 0, 0
	targets[4].gen, targets[5].gen = 0, 0
	c.markAct(targets[2])
	c.markAct(targets[3])
	c.Reclaim()

	if hub.edge(20) != targets[2] || hub.edge(30) != targets[3] {
		t.Fatal("surviving edges lost in the clip")
	}
	if hub.next != targets[2] || targets[2].sib != targets[3] || targets[3].sib != nil {
		t.Error("survivors not relinked in label order")
	}
	for _, l := range []int64{0, 10, 40, 50} {
		if hub.edge(l) != nil {
			t.Errorf("dead edge %d survived", l)
		}
	}
	want := len(cfgA.key) + configOverhead + 3*actionBytes // hub + 2 survivors
	if c.Bytes() != want {
		t.Errorf("bytes = %d, want %d (no overflow charge for two survivors)",
			c.Bytes(), want)
	}
}

// TestCollectEdgeOverflowPartialSurvival: four of five successors survive —
// two of them beyond the second, which stay charged.
func TestCollectEdgeOverflowPartialSurvival(t *testing.T) {
	c := NewCache(Options{Policy: PolicyGC, Limit: 1})
	cfgA, _ := c.getOrCreate([]byte{0, 0, 0, 0, 0, 0})
	hub := c.newAction(actOutcome, 0)
	cfgA.first = hub
	targets := make([]*action, 5)
	for i := range targets {
		targets[i] = c.newAction(actAdvance, 0)
		c.addBytes(hub.setEdge(int64(i*10), targets[i]))
	}
	c.mark(cfgA)
	c.markAct(hub)
	targets[0].gen = 0 // the lowest label dies
	for _, tg := range targets[1:] {
		c.markAct(tg)
	}
	c.Reclaim()

	for i, l := range []int64{10, 20, 30, 40} {
		if hub.edge(l) != targets[i+1] {
			t.Fatalf("edge %d lost", l)
		}
	}
	if hub.edge(0) != nil || hub.next != targets[1] {
		t.Fatal("dead lowest edge not clipped from the list head")
	}
	want := len(cfgA.key) + configOverhead + 5*actionBytes + 2*edgeExtraBytes
	if c.Bytes() != want {
		t.Errorf("bytes = %d, want %d", c.Bytes(), want)
	}
}

// TestCollectDeepChainIterative: a chain far deeper than any goroutine
// stack could absorb recursively must collect without overflow.
func TestCollectDeepChainIterative(t *testing.T) {
	c := NewCache(Options{Policy: PolicyGC, Limit: 1})
	cfg, _ := c.getOrCreate([]byte{0, 0, 0, 0, 0, 0})
	const depth = 200_000
	head := c.newAction(actAdvance, 0)
	cfg.first = head
	cur := head
	for i := 1; i < depth; i++ {
		n := c.newAction(actIssueStore, 0)
		cur.next = n
		cur = n
	}
	c.mark(cfg)
	// All nodes were allocated in the current generation, so all survive.
	c.Reclaim()
	count := 0
	for a := cfg.first; a != nil; a = a.next {
		count++
	}
	if count != depth {
		t.Fatalf("chain truncated: %d of %d nodes", count, depth)
	}
	if got := c.Bytes(); got != len(cfg.key)+configOverhead+depth*actionBytes {
		t.Errorf("bytes = %d", got)
	}
}

// TestExportGraphDeepChainIterative: export must also survive depth without
// recursion, numbering the chain in order.
func TestExportGraphDeepChainIterative(t *testing.T) {
	c := NewCache(DefaultOptions())
	cfg, _ := c.getOrCreate([]byte{0, 0, 0, 0, 0, 0})
	const depth = 200_000
	head := c.newAction(actAdvance, 0)
	cfg.first = head
	cur := head
	for i := 1; i < depth; i++ {
		n := c.newAction(actIssueStore, 0)
		cur.next = n
		cur = n
	}
	g := c.ExportGraph()
	if len(g.Actions) != depth || g.First[0] != 0 {
		t.Fatalf("exported %d actions from head %d, want %d from 0", len(g.Actions), g.First[0], depth)
	}
	for i := 0; i < depth-1; i++ {
		if g.Actions[i].Next != int64(i+1) {
			t.Fatalf("action %d: Next = %d, want %d", i, g.Actions[i].Next, i+1)
		}
	}
	if g.Actions[depth-1].Next != -1 {
		t.Error("chain tail has a successor")
	}
}

func TestFlushReleasesArena(t *testing.T) {
	c := NewCache(Options{Policy: PolicyFlush, Limit: 1})
	buildChain(c)
	if c.arena.slabCount() == 0 {
		t.Fatal("arena unused before flush")
	}
	c.Reclaim()
	if c.arena.slabCount() != 0 {
		t.Error("flush did not release arena slabs")
	}
	// The cache is immediately usable again.
	cfg, created := c.getOrCreate([]byte{5, 0, 0, 0, 0, 0})
	if !created || cfg == nil {
		t.Fatal("create after flush failed")
	}
	if a := c.newAction(actAdvance, 0); a == nil || c.arena.slabCount() != 1 {
		t.Error("allocation after flush broken")
	}
}

func TestCollectRecyclesArenaSlots(t *testing.T) {
	c := NewCache(Options{Policy: PolicyGC, Limit: 1})
	cfgA, _, adv, out, lnk := buildChain(c)
	out.gen, lnk.gen = 0, 0 // age everything but the advance
	c.mark(cfgA)
	c.markAct(adv)
	c.Reclaim()
	if len(c.arena.free) != 2 {
		t.Fatalf("free slots = %d, want 2 (outcome + link)", len(c.arena.free))
	}
	slabs := c.arena.slabCount()
	a := c.newAction(actOutcome, 0)
	b := c.newAction(actLink, 0)
	if (a != out && a != lnk) || (b != out && b != lnk) || a == b {
		t.Error("new actions did not recycle the collected slots")
	}
	if c.arena.slabCount() != slabs {
		t.Error("slab grew despite free slots")
	}
}
