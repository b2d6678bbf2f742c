package memo

import (
	"strings"
	"testing"
	"unsafe"

	"fastsim/internal/direct"
	"fastsim/internal/uarch"
)

func TestPolicyStringsRoundTrip(t *testing.T) {
	for p := PolicyUnbounded; p <= PolicyGenGC; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v failed: %v %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	if !strings.Contains(Policy(99).String(), "99") {
		t.Error("unknown policy string")
	}
}

func TestEdgeInlineAndOverflow(t *testing.T) {
	a := &action{kind: actIssueLoad}
	targets := make([]*action, 6)
	for i := range targets {
		targets[i] = &action{kind: actAdvance}
	}
	extra := 0
	// Insert out of label order: the list must come out sorted.
	for _, i := range []int{3, 0, 5, 1, 4, 2} {
		extra += a.setEdge(int64(i*10), targets[i])
	}
	// The first two successors are free; the four beyond are charged.
	if extra != 4*edgeExtraBytes || a.extraEdgeBytes() != extra {
		t.Errorf("charged %d (recount %d), want %d", extra, a.extraEdgeBytes(), 4*edgeExtraBytes)
	}
	for i, tgt := range targets {
		if a.edge(int64(i*10)) != tgt {
			t.Errorf("edge %d lost", i)
		}
	}
	if a.edge(999) != nil || a.edge(5) != nil || a.edge(-1) != nil {
		t.Error("phantom edge")
	}
	i := 0
	for k := a.next; k != nil; k = k.sib {
		if k != targets[i] || k.label != int64(i*10) {
			t.Errorf("successor %d out of label order", i)
		}
		i++
	}
	if i != 6 {
		t.Errorf("child loop visited %d, want 6", i)
	}
}

// TestActionLayout pins the node's Go size to the footprint the cache
// charges for it.
func TestActionLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(action{}); got != actionBytes {
		t.Errorf("unsafe.Sizeof(action{}) = %d, want actionBytes = %d", got, actionBytes)
	}
}

func TestGetOrCreateAndAccounting(t *testing.T) {
	c := NewCache(DefaultOptions())
	key := []byte{1, 2, 3, 4, 0, 2, 9, 9} // count byte = 2
	cfg, created := c.getOrCreate(key)
	if !created || cfg == nil {
		t.Fatal("create failed")
	}
	cfg2, created2 := c.getOrCreate(key)
	if created2 || cfg2 != cfg {
		t.Error("second lookup must return the same config")
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
	wantBytes := len(key) + configOverhead
	if c.Bytes() != wantBytes {
		t.Errorf("bytes = %d, want %d", c.Bytes(), wantBytes)
	}
	st := c.Stats()
	if st.Configs != 1 || st.ConfigBytesC != uint64(wantBytes) {
		t.Errorf("stats = %+v", st)
	}
	if st.NaiveBytesC != 16+16*2 {
		t.Errorf("naive bytes = %d", st.NaiveBytesC)
	}
	if c.lookup(key) != cfg {
		t.Error("lookup failed")
	}
	if c.lookup([]byte{9}) != nil {
		t.Error("phantom lookup")
	}
}

func TestNewActionAccounting(t *testing.T) {
	c := NewCache(DefaultOptions())
	a := c.newAction(actOutcome, 3)
	if a.kind != actOutcome || a.rel != 3 {
		t.Error("fields wrong")
	}
	if c.Bytes() != actionBytes || c.Stats().Actions != 1 {
		t.Error("accounting wrong")
	}
}

// buildChain creates cfgA -> [advance -> outcome -> link] -> cfgB.
func buildChain(c *Cache) (*config, *config, *action, *action, *action) {
	cfgA, _ := c.getOrCreate([]byte{0, 0, 0, 0, 0, 0})
	cfgB, _ := c.getOrCreate([]byte{1, 0, 0, 0, 0, 0})
	adv := c.newAction(actAdvance, 0)
	adv.cycles = 3
	out := c.newAction(actOutcome, 0)
	lnk := c.newAction(actLink, 0)
	lnk.nextCfg = cfgB
	cfgA.first = adv
	adv.next = out
	out.setEdge(labelKindBranch|1, lnk)
	return cfgA, cfgB, adv, out, lnk
}

func TestFlushPolicy(t *testing.T) {
	c := NewCache(Options{Policy: PolicyFlush, Limit: 1})
	buildChain(c)
	if !c.overLimit() {
		t.Fatal("not over limit")
	}
	c.Reclaim()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("flush incomplete: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if c.Stats().Flushes != 1 {
		t.Error("flush not counted")
	}
}

func TestCollectKeepsMarkedDropsUnmarked(t *testing.T) {
	c := NewCache(Options{Policy: PolicyGC, Limit: 1})
	cfgA, cfgB, adv, out, lnk := buildChain(c)
	// Mark only cfgA's chain as used this generation; cfgB is stale.
	cfgB.gen = 0
	c.mark(cfgA)
	c.markAct(adv)
	c.markAct(out)
	c.markAct(lnk)
	c.Reclaim()
	if c.lookup([]byte{0, 0, 0, 0, 0, 0}) != cfgA {
		t.Fatal("marked config dropped")
	}
	if cfgA.first != adv || adv.next != out || out.edge(labelKindBranch|1) != lnk {
		t.Error("marked chain clipped")
	}
	// cfgB was dropped but is referenced by the surviving link: it must
	// remain as a shell (key preserved, chain gone).
	shell := c.lookup([]byte{1, 0, 0, 0, 0, 0})
	if shell == nil {
		t.Fatal("referenced config vanished entirely")
	}
	if shell.first != nil {
		t.Error("shell kept its chain")
	}
	if lnk.nextCfg != shell {
		t.Error("link no longer reaches the shell")
	}
	if c.Stats().Collections != 1 {
		t.Error("collection not counted")
	}
}

func TestCollectClipsDeadActions(t *testing.T) {
	c := NewCache(Options{Policy: PolicyGC, Limit: 1})
	cfgA, _, adv, out, lnk := buildChain(c)
	// Age the outcome and link (allocation marks the current generation),
	// keep the config and advance marked: the chain must be clipped after
	// the advance.
	out.gen, lnk.gen = 0, 0
	c.mark(cfgA)
	c.markAct(adv)
	c.Reclaim()
	if cfgA.first != adv {
		t.Fatal("advance dropped")
	}
	if adv.next != nil {
		t.Error("dead successor not clipped")
	}
}

func TestCollectDropsUnmarkedConfigEntirely(t *testing.T) {
	c := NewCache(Options{Policy: PolicyGC, Limit: 1})
	cfgA, _ := c.getOrCreate([]byte{7, 0, 0, 0, 0, 0})
	cfgA.gen = 0 // stale, unreferenced
	c.Reclaim()
	if c.Len() != 0 {
		t.Errorf("unreferenced stale config survived: len=%d", c.Len())
	}
}

func TestGenerationalPromotion(t *testing.T) {
	c := NewCache(Options{Policy: PolicyGenGC, Limit: 1, MajorEvery: 100})
	cfgA, _, adv, out, lnk := buildChain(c)
	c.mark(cfgA)
	c.markAct(adv)
	c.markAct(out)
	c.markAct(lnk)
	c.Reclaim() // minor collection: survivors promoted to old
	if !adv.old || !cfgA.old {
		t.Fatal("survivors not promoted")
	}
	// Next minor collection: even unmarked, old entries survive.
	c.Reclaim()
	if c.lookup([]byte{0, 0, 0, 0, 0, 0}) != cfgA || cfgA.first != adv {
		t.Error("old entries collected by a minor collection")
	}
}

func TestUnboundedNeverReclaims(t *testing.T) {
	c := NewCache(Options{Policy: PolicyUnbounded, Limit: 1})
	buildChain(c)
	before := c.Bytes()
	c.Reclaim()
	if c.Bytes() != before || c.Len() != 2 {
		t.Error("unbounded cache reclaimed")
	}
}

func TestOutcomeLabels(t *testing.T) {
	cases := []struct {
		out  uarch.Outcome
		want int64
	}{
		{uarch.Outcome{Kind: direct.KindBranch}, labelKindBranch},
		{uarch.Outcome{Kind: direct.KindBranch, Taken: true}, labelKindBranch | 1},
		{uarch.Outcome{Kind: direct.KindBranch, Mispredicted: true}, labelKindBranch | 2},
		{uarch.Outcome{Kind: direct.KindBranch, Taken: true, Mispredicted: true}, labelKindBranch | 3},
		{uarch.Outcome{Kind: direct.KindIJump, Target: 0x1234}, labelKindIJump | 0x1234},
		{uarch.Outcome{Kind: direct.KindHalt}, labelKindHalt},
		{uarch.Outcome{Kind: direct.KindStall}, labelKindStall},
	}
	seen := map[int64]bool{}
	for _, c := range cases {
		got := outcomeLabel(c.out)
		if got != c.want {
			t.Errorf("label(%+v) = %#x, want %#x", c.out, got, c.want)
		}
		if seen[got] {
			t.Errorf("label collision at %#x", got)
		}
		seen[got] = true
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.ActionsPerConfig() != 0 || s.CyclesPerConfig() != 0 ||
		s.AvgChain() != 0 || s.DetailedFraction() != 0 {
		t.Error("zero stats must not divide by zero")
	}
	s.EpisodesRecord = 2
	s.EpisodesReplay = 2
	s.Actions = 6
	s.ActionsReplayed = 6
	s.DetailedCycles = 4
	s.ReplayCycles = 4
	s.ChainCount = 2
	s.ChainTotal = 10
	s.DetailedInsts = 1
	s.ReplayInsts = 99
	if got := s.ActionsPerConfig(); got != 3 {
		t.Errorf("act/cfg = %v", got)
	}
	if got := s.CyclesPerConfig(); got != 2 {
		t.Errorf("cyc/cfg = %v", got)
	}
	if got := s.AvgChain(); got != 5 {
		t.Errorf("avg chain = %v", got)
	}
	if got := s.DetailedFraction(); got != 0.01 {
		t.Errorf("detailed frac = %v", got)
	}
}

func TestExportGraphSmoke(t *testing.T) {
	c := NewCache(DefaultOptions())
	buildChain(c)
	g := c.ExportGraph()
	var kinds []string
	for i := range g.Actions {
		kinds = append(kinds, g.Actions[i].KindString())
	}
	if got := strings.Join(kinds, " "); got != "advance outcome link" {
		t.Errorf("exported kinds %q, want advance outcome link", got)
	}
	out := g.Actions[1]
	if out.Next != -1 || len(out.Labels) != 1 || out.Labels[0] != labelKindBranch|1 || out.Targets[0] != 2 {
		t.Errorf("outcome exported as %+v", out)
	}
	if g.Actions[0].Next != 1 || g.Actions[2].NextCfg != 1 {
		t.Errorf("chain exported as %+v", g.Actions)
	}
}

func TestExportDot(t *testing.T) {
	c := NewCache(DefaultOptions())
	cfgA, _, out, _, _ := buildChain(c)
	_ = out
	var b strings.Builder
	if err := c.ExportDot(&b, 10); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	for _, want := range []string{"digraph paction", "advance", "outcome",
		"T/pred", "shape=box", "}"} {
		if !strings.Contains(s, want) {
			t.Errorf("dot missing %q:\n%s", want, s)
		}
	}
	_ = cfgA
}

func TestEdgeLabelNames(t *testing.T) {
	cases := map[int64]string{
		labelKindBranch | 0: "NT/pred",
		labelKindBranch | 3: "T/mis",
		labelKindHalt:       "halt",
		labelKindStall:      "stall",
		readyEdgeLabel:      "ready",
		17:                  "17 cyc",
	}
	for l, want := range cases {
		if got := edgeLabel(l); got != want {
			t.Errorf("edgeLabel(%#x) = %q, want %q", l, got, want)
		}
	}
	if !strings.Contains(edgeLabel(labelKindIJump|0x2000), "jmp") {
		t.Error("ijump label")
	}
}

func TestActionKindStrings(t *testing.T) {
	for k := actAdvance; k <= actLink; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
