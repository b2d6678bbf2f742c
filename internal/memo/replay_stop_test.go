package memo

import (
	"testing"

	"fastsim/internal/direct"
	"fastsim/internal/uarch"
)

// stubDriver is a minimal Driver for exercising replayRun's stop paths
// without a full core wiring.
type stubDriver struct {
	heads uarch.Heads
	outs  []uarch.Outcome
	pops  [][4]int
}

func (d *stubDriver) NextOutcome() uarch.Outcome {
	out := d.outs[0]
	d.outs = d.outs[1:]
	return out
}
func (d *stubDriver) IssueLoad(lqIdx int, now uint64) int        { return 0 }
func (d *stubDriver) PollLoad(lqIdx int, now uint64) (bool, int) { return true, 0 }
func (d *stubDriver) IssueStore(sqIdx int, now uint64)           {}
func (d *stubDriver) CancelLoad(lqIdx int)                       {}
func (d *stubDriver) Rollback(recIdx int) (int, int)             { return 0, 0 }
func (d *stubDriver) HaltRetired()                               {}
func (d *stubDriver) Heads() uarch.Heads                         { return d.heads }
func (d *stubDriver) RetirePop(insts, loads, stores, recs int) {
	d.pops = append(d.pops, [4]int{insts, loads, stores, recs})
}

// benchDriver is a stub Driver whose interactions are constant, so a chain
// replays identically every pass: pure dispatch, no core wiring.
type benchDriver struct {
	heads uarch.Heads
	out   uarch.Outcome
	pops  int
}

func (d *benchDriver) NextOutcome() uarch.Outcome                 { return d.out }
func (d *benchDriver) IssueLoad(lqIdx int, now uint64) int        { return 0 }
func (d *benchDriver) PollLoad(lqIdx int, now uint64) (bool, int) { return true, 0 }
func (d *benchDriver) IssueStore(sqIdx int, now uint64)           {}
func (d *benchDriver) CancelLoad(lqIdx int)                       {}
func (d *benchDriver) Rollback(recIdx int) (int, int)             { return 0, 0 }
func (d *benchDriver) RetirePop(insts, loads, stores, recs int)   { d.pops++ }
func (d *benchDriver) HaltRetired()                               {}
func (d *benchDriver) Heads() uarch.Heads                         { return d.heads }

func newStubEngine() (*Engine, *stubDriver) {
	d := &stubDriver{}
	return &Engine{Cache: NewCache(DefaultOptions()), drv: d}, d
}

// A collected shell (cfg.first == nil) stops fast-forwarding cleanly: the
// configuration is returned for re-recording and no EdgeMiss is charged —
// the previous episode committed fully, nothing was half-replayed.
func TestReplayStopAtShell(t *testing.T) {
	e, _ := newStubEngine()
	shell, _ := e.Cache.getOrCreate([]byte{1, 0, 0, 0, 0, 0})
	e.beginChain()
	got, rerr := e.replayRun(shell)
	if rerr != nil {
		t.Fatalf("replayRun: %v", rerr)
	}
	if got != shell {
		t.Fatalf("replayRun returned %v, want the shell", got)
	}
	st := e.Cache.Stats()
	if st.EdgeMisses != 0 {
		t.Errorf("EdgeMisses = %d, want 0 for a shell stop", st.EdgeMisses)
	}
	if st.EpisodesReplay != 0 || e.now != 0 {
		t.Errorf("shell stop committed state: episodes=%d now=%d",
			st.EpisodesReplay, e.now)
	}
	if len(e.script) != 0 {
		t.Errorf("script not empty: %d entries", len(e.script))
	}
}

// A successor clipped by a collection mid-episode (act == nil after the
// advance) is an EdgeMiss: the episode must not commit, and the stopping
// configuration is handed back for detailed re-simulation.
func TestReplayStopAtClippedSuccessor(t *testing.T) {
	e, d := newStubEngine()
	c := e.Cache
	cfg, _ := c.getOrCreate([]byte{1, 0, 0, 0, 0, 0})
	adv := c.newAction(actAdvance, 0)
	adv.cycles, adv.insts = 7, 3
	cfg.first = adv // adv.next clipped: nil

	e.beginChain()
	got, rerr := e.replayRun(cfg)
	if rerr != nil {
		t.Fatalf("replayRun: %v", rerr)
	}
	if got != cfg {
		t.Fatalf("replayRun returned %v, want the stopping config", got)
	}
	st := c.Stats()
	if st.EdgeMisses != 1 {
		t.Errorf("EdgeMisses = %d, want 1", st.EdgeMisses)
	}
	if e.now != 0 || len(d.pops) != 0 || st.EpisodesReplay != 0 {
		t.Errorf("uncommitted episode leaked state: now=%d pops=%v episodes=%d",
			e.now, d.pops, st.EpisodesReplay)
	}
}

// An actLink whose nextCfg was severed (nil) is likewise an EdgeMiss, but it
// stops *after* the episode's interactions replayed — the already-performed
// interactions must be in e.script for the recorder to re-drive, and the
// episode must not have committed.
func TestReplayStopAtNilLinkTarget(t *testing.T) {
	e, d := newStubEngine()
	c := e.Cache
	cfg, _ := c.getOrCreate([]byte{1, 0, 0, 0, 0, 0})
	adv := c.newAction(actAdvance, 0)
	adv.cycles = 5
	out := c.newAction(actOutcome, 0)
	lnk := c.newAction(actLink, 0) // nextCfg nil: target collected
	cfg.first = adv
	adv.next = out
	outcome := uarch.Outcome{Kind: direct.KindBranch, Taken: true}
	out.setEdge(outcomeLabel(outcome), lnk)
	d.outs = []uarch.Outcome{outcome}

	e.beginChain()
	got, rerr := e.replayRun(cfg)
	if rerr != nil {
		t.Fatalf("replayRun: %v", rerr)
	}
	if got != cfg {
		t.Fatalf("replayRun returned %v, want the stopping config", got)
	}
	st := c.Stats()
	if st.EdgeMisses != 1 {
		t.Errorf("EdgeMisses = %d, want 1", st.EdgeMisses)
	}
	if e.now != 0 || len(d.pops) != 0 {
		t.Errorf("severed link committed the episode: now=%d pops=%v", e.now, d.pops)
	}
	if len(e.script) != 1 || e.script[0].kind != actOutcome {
		t.Fatalf("script = %+v, want the replayed outcome", e.script)
	}
	if st.ActionsReplayed != 2 { // outcome + link
		t.Errorf("ActionsReplayed = %d, want 2", st.ActionsReplayed)
	}
}

// The happy path through a link into a shell: the first episode commits
// (cycles advance, pops apply), then the shell stops the chain without an
// EdgeMiss.
func TestReplayCommitsThenStopsAtShell(t *testing.T) {
	e, d := newStubEngine()
	c := e.Cache
	cfgA, _ := c.getOrCreate([]byte{1, 0, 0, 0, 0, 0})
	cfgB, _ := c.getOrCreate([]byte{2, 0, 0, 0, 0, 0}) // shell: first == nil
	adv := c.newAction(actAdvance, 0)
	adv.cycles, adv.insts, adv.loads = 9, 4, 1
	lnk := c.newAction(actLink, 0)
	lnk.nextCfg = cfgB
	cfgA.first = adv
	adv.next = lnk

	e.beginChain()
	got, rerr := e.replayRun(cfgA)
	if rerr != nil {
		t.Fatalf("replayRun: %v", rerr)
	}
	if got != cfgB {
		t.Fatalf("replayRun returned %v, want the shell target", got)
	}
	st := c.Stats()
	if st.EdgeMisses != 0 {
		t.Errorf("EdgeMisses = %d, want 0", st.EdgeMisses)
	}
	if e.now != 9 || st.EpisodesReplay != 1 || st.ReplayInsts != 4 {
		t.Errorf("episode not committed: now=%d episodes=%d insts=%d",
			e.now, st.EpisodesReplay, st.ReplayInsts)
	}
	if len(d.pops) != 1 || d.pops[0] != [4]int{4, 1, 0, 0} {
		t.Errorf("pops = %v", d.pops)
	}
}

// A halt action commits the final episode (clock and pops) before halting
// the engine, and replayRun reports it as (nil, nil).
func TestReplayHalt(t *testing.T) {
	e, d := newStubEngine()
	c := e.Cache
	cfg, _ := c.getOrCreate([]byte{9, 0, 0, 0, 0, 0})
	adv := c.newAction(actAdvance, 0)
	adv.cycles, adv.insts = 11, 5
	cfg.first = adv
	adv.next = c.newAction(actHalt, 0)

	e.beginChain()
	got, rerr := e.replayRun(cfg)
	if rerr != nil || got != nil {
		t.Fatalf("replayRun = (%v, %v), want (nil, nil) on halt", got, rerr)
	}
	if !e.halted {
		t.Fatal("engine not halted")
	}
	st := c.Stats()
	if e.now != 11 || st.EpisodesReplay != 1 || st.ReplayInsts != 5 {
		t.Errorf("final episode not committed: now=%d episodes=%d insts=%d",
			e.now, st.EpisodesReplay, st.ReplayInsts)
	}
	if len(d.pops) != 1 || d.pops[0] != [4]int{5, 0, 0, 0} {
		t.Errorf("pops = %v", d.pops)
	}
}

// BenchmarkReplayWalk isolates the replay walk from the simulation driver:
// a chain of 512 configurations, each holding one representative episode
// (outcome branch, issue-store, link), replayed against constant
// interactions. It is the dispatch-only baseline for replay changes.
func BenchmarkReplayWalk(b *testing.B) {
	const chainLen = 512
	e := &Engine{Cache: NewCache(DefaultOptions()), drv: &benchDriver{out: benchOutcome}}
	c := e.Cache
	cfgs := make([]*config, chainLen+1)
	for i := range cfgs {
		cfgs[i], _ = c.getOrCreate([]byte{byte(i), byte(i >> 8), 1, 0, 0, 0})
	}
	for i := 0; i < chainLen; i++ {
		adv := c.newAction(actAdvance, 0)
		adv.cycles, adv.insts, adv.stores = 3, 2, 1
		out := c.newAction(actOutcome, 0)
		st := c.newAction(actIssueStore, 0)
		lnk := c.newAction(actLink, 0)
		lnk.nextCfg = cfgs[i+1]
		cfgs[i].first = adv
		adv.next = out
		out.setEdge(outcomeLabel(benchOutcome), st)
		st.next = lnk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.now = 0
		e.beginChain()
		if _, err := e.replayRun(cfgs[0]); err != nil {
			b.Fatal(err)
		}
		e.endChain()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chainLen, "ns/episode")
}

var benchOutcome = uarch.Outcome{Kind: direct.KindBranch, Taken: true}
