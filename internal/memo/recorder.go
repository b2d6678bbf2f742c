package memo

import (
	"fmt"

	"fastsim/internal/uarch"
)

// recorder is the uarch.Env wrapper active during detailed simulation. It
// forwards every interaction to the real driver (or feeds it from the
// script after a replay stopped mid-episode) while walking the action graph
// in lockstep: existing nodes are verified, missing ones are allocated —
// which is how new outcome branches grow exactly where fast-forwarding
// stopped (Figure 6).
type recorder struct {
	e      *Engine
	drv    Driver
	c      *Cache
	cfg    *config
	heads0 uarch.Heads

	script []scriptEntry
	sp     int

	// advance accumulation for this episode.
	cycles uint32
	insts  int32
	loads  int32
	stores int32
	recs   int32

	interacted  bool
	halt        bool
	advanceDone bool

	// verify marks a shadow-verification episode: the detailed simulator
	// executes (ground truth side effects) while the walk cross-checks the
	// cached chain, and a mismatch quarantines the chain instead of
	// panicking — the run continues on the detailed results.
	verify bool
	// noWrite detaches the recorder from the graph: interactions still
	// reach the driver, but nothing is verified, allocated or linked. Set
	// by diverge after a quarantine (the rest of the episode has no chain
	// to walk) and by the engine's detailed-only degradation level.
	noWrite bool

	// Position in the action graph: the successor of (node, label) is
	// where the next action lives or will be attached. node == nil means
	// the position is cfg.first.
	node    *action
	label   int64
	labeled bool
}

func (e *Engine) newRecorder(cfg *config, script []scriptEntry) *recorder {
	r := &e.recScratch
	*r = recorder{
		e: e, drv: e.drv, c: e.Cache, cfg: cfg,
		heads0: e.drv.Heads(), script: script,
	}
	return r
}

func (r *recorder) successor() *action {
	if r.node == nil {
		return r.cfg.first
	}
	if r.labeled {
		return r.node.edge(r.label)
	}
	return r.node.next
}

func (r *recorder) setSuccessor(a *action) {
	switch {
	case r.node == nil:
		r.cfg.first = a
	case r.labeled:
		r.c.addBytes(r.node.setEdge(r.label, a))
	default:
		r.node.next = a
	}
}

func (r *recorder) stepTo(a *action, labeled bool, label int64) {
	if r.noWrite {
		return
	}
	r.node, r.labeled, r.label = a, labeled, label
}

// pre finalizes the episode's advance action at the first interaction. By
// construction all interactions happen in the episode's final cycle, and
// that cycle's retirements (phase 1) precede its interactions, so the
// accumulated payload is final here.
func (r *recorder) pre() {
	r.interacted = true
	if r.advanceDone {
		return
	}
	r.advanceDone = true
	if r.noWrite {
		return
	}
	adv := r.successor()
	if adv != nil {
		if adv.kind != actAdvance {
			r.diverge("episode starts with %v", adv.kind)
			return
		}
		if adv.cycles != r.cycles || adv.insts != r.insts || adv.loads != r.loads ||
			adv.stores != r.stores || adv.recs != r.recs {
			r.diverge("advance payload mismatch: have {%d %d %d %d %d}, recorded {%d %d %d %d %d}",
				r.cycles, r.insts, r.loads, r.stores, r.recs,
				adv.cycles, adv.insts, adv.loads, adv.stores, adv.recs)
			return
		}
		r.c.markAct(adv)
	} else {
		adv = r.c.newAction(actAdvance, 0)
		adv.cycles = r.cycles
		adv.insts, adv.loads, adv.stores, adv.recs = r.insts, r.loads, r.stores, r.recs
		r.setSuccessor(adv)
	}
	r.stepTo(adv, false, 0)
}

// nodeFor verifies or allocates the action node for the next interaction.
// It returns nil once the recorder is detached (noWrite); stepTo then
// ignores the position, so Env methods need no nil checks of their own.
func (r *recorder) nodeFor(kind actionKind, rel int32) *action {
	r.pre()
	if r.noWrite {
		return nil
	}
	n := r.successor()
	if n != nil {
		if n.kind != kind || n.rel != rel {
			r.diverge("expected %v rel=%d, graph has %v rel=%d", kind, rel, n.kind, n.rel)
			return nil
		}
		r.c.markAct(n)
	} else {
		n = r.c.newAction(kind, rel)
		r.setSuccessor(n)
	}
	return n
}

// setLink attaches (or verifies) the episode's terminal link to the next
// configuration. Called by the engine at the following boundary.
func (r *recorder) setLink(cfg *config) {
	if !r.advanceDone {
		r.desync("episode ended without interactions")
	}
	if r.noWrite {
		return
	}
	n := r.successor()
	if n != nil {
		if n.kind != actLink {
			r.diverge("expected link, graph has %v", n.kind)
			return
		}
		r.c.markAct(n)
		if n.nextCfg == nil || n.nextCfg.key != cfg.key {
			n.nextCfg = cfg
		}
	} else {
		n = r.c.newAction(actLink, 0)
		n.nextCfg = cfg
		r.setSuccessor(n)
	}
}

func (r *recorder) desync(format string, args ...interface{}) {
	panic(uarch.Desync{Msg: "memo: " + fmt.Sprintf(format, args...)})
}

// diverge handles a walk/execution mismatch. Outside verification it is a
// desync — recording follows real execution, so a mismatch there is an
// engine bug and panics as before. Under shadow verification the detailed
// simulator is ground truth and the mismatch convicts the cached chain:
// the chain is quarantined (atomically evicted, the configuration left as
// a shell to re-memoize from scratch) and the recorder detaches for the
// rest of the episode, which completes on the detailed results alone.
func (r *recorder) diverge(format string, args ...interface{}) {
	if !r.verify {
		r.desync(format, args...)
	}
	r.c.stats.VerifyDivergences++
	r.e.quarantineChain(r.cfg, fmt.Sprintf(format, args...))
	r.noWrite = true
}

func (r *recorder) take(kind actionKind) (scriptEntry, bool) {
	if r.sp < len(r.script) {
		se := r.script[r.sp]
		r.sp++
		if se.kind != kind {
			r.desync("script has %v, detailed wants %v", se.kind, kind)
		}
		return se, true
	}
	return scriptEntry{}, false
}

// --- uarch.Env implementation ---

func (r *recorder) NextOutcome() uarch.Outcome {
	var out uarch.Outcome
	if se, ok := r.take(actOutcome); ok {
		out = se.out
	} else {
		out = r.drv.NextOutcome()
	}
	n := r.nodeFor(actOutcome, 0)
	r.stepTo(n, true, outcomeLabel(out))
	return out
}

func (r *recorder) IssueLoad(lqIdx int, now uint64) int {
	var d int
	if se, ok := r.take(actIssueLoad); ok {
		d = se.delay
	} else {
		d = r.drv.IssueLoad(lqIdx, now)
	}
	n := r.nodeFor(actIssueLoad, int32(lqIdx-r.heads0.LQ))
	r.stepTo(n, true, int64(d))
	return d
}

func (r *recorder) PollLoad(lqIdx int, now uint64) (bool, int) {
	var ready bool
	var d int
	if se, ok := r.take(actPollLoad); ok {
		ready, d = se.ready, se.delay
	} else {
		ready, d = r.drv.PollLoad(lqIdx, now)
	}
	n := r.nodeFor(actPollLoad, int32(lqIdx-r.heads0.LQ))
	lbl := int64(readyEdgeLabel)
	if !ready {
		lbl = int64(d)
	}
	r.stepTo(n, true, lbl)
	return ready, d
}

func (r *recorder) IssueStore(sqIdx int, now uint64) {
	if _, ok := r.take(actIssueStore); !ok {
		r.drv.IssueStore(sqIdx, now)
	}
	n := r.nodeFor(actIssueStore, int32(sqIdx-r.heads0.SQ))
	r.stepTo(n, false, 0)
}

func (r *recorder) CancelLoad(lqIdx int) {
	if _, ok := r.take(actCancelLoad); !ok {
		r.drv.CancelLoad(lqIdx)
	}
	n := r.nodeFor(actCancelLoad, int32(lqIdx-r.heads0.LQ))
	r.stepTo(n, false, 0)
}

func (r *recorder) Rollback(recIdx int) (int, int) {
	var lq, sq int
	if se, ok := r.take(actRollback); ok {
		lq, sq = se.lq, se.sq
	} else {
		lq, sq = r.drv.Rollback(recIdx)
	}
	n := r.nodeFor(actRollback, int32(recIdx-r.heads0.Rec))
	r.stepTo(n, false, 0)
	return lq, sq
}

func (r *recorder) RetirePop(insts, loads, stores, recs int) {
	r.insts += int32(insts)
	r.loads += int32(loads)
	r.stores += int32(stores)
	r.recs += int32(recs)
	r.e.Cache.stats.DetailedInsts += uint64(insts)
	r.drv.RetirePop(insts, loads, stores, recs)
}

func (r *recorder) HaltRetired() {
	n := r.nodeFor(actHalt, 0)
	r.stepTo(n, false, 0)
	r.halt = true
	r.drv.HaltRetired()
}
