package memo

import (
	"fmt"
	"io"
	"runtime"

	"fastsim/internal/direct"
	"fastsim/internal/faultinject"
	"fastsim/internal/obs"
	"fastsim/internal/program"
	"fastsim/internal/uarch"
)

// Driver is the environment the memoization engine shares with the detailed
// µ-architecture simulator: the direct-execution engine, cache simulator
// and queue-head bookkeeping, as wired up by the core package. During
// detailed simulation the pipeline calls it through the recording wrapper;
// during fast-forwarding the replayer calls it directly.
type Driver interface {
	uarch.Env

	// Heads returns the current absolute queue-head positions (records,
	// lQ entries, sQ entries popped so far).
	Heads() uarch.Heads

	// ApplyPops advances the queue heads and retirement statistics — the
	// replay-side equivalent of RetirePop.
	ApplyPops(insts, loads, stores, recs int)
}

// outcomeLabel encodes a control outcome as an action-edge label: the four
// conditional-branch outcome classes of §4.2, the concrete indirect-jump
// target, or the halt/stall markers.
func outcomeLabel(out uarch.Outcome) int64 {
	switch out.Kind {
	case direct.KindBranch:
		cls := int64(0)
		if out.Taken {
			cls |= 1
		}
		if out.Mispredicted {
			cls |= 2
		}
		return labelKindBranch | cls
	case direct.KindIJump:
		return labelKindIJump | int64(out.Target)
	case direct.KindHalt:
		return labelKindHalt
	case direct.KindStall:
		return labelKindStall
	}
	panic(fmt.Sprintf("memo: bad outcome kind %d", out.Kind))
}

// scriptEntry is one interaction already performed during a replay episode
// that stopped at an unseen outcome. The detailed simulator is re-driven
// through these before touching the real environment again, so no external
// side effect ever happens twice.
type scriptEntry struct {
	kind  actionKind
	out   uarch.Outcome // actOutcome
	ready bool          // actPollLoad
	delay int           // actIssueLoad / actPollLoad
	lq    int           // actRollback results
	sq    int
}

// Engine runs a program with fast-forwarding: detailed simulation records
// configurations and action chains; revisited configurations replay them
// with bit-identical results.
type Engine struct {
	Cache  *Cache
	drv    Driver
	prog   *program.Program
	params uarch.Params

	// Obs, when non-nil, receives episode events and episode-boundary
	// samples; set it before Run.
	Obs *obs.Observer
	// Trace, when non-nil, receives hierarchical span hooks (record and
	// replay episode spans, reclaim spans, quarantine and guard instants);
	// set it before Run. Like Obs it is read-only: the Result is
	// bit-identical with or without it.
	Trace *obs.Tracer
	// TraceW, when non-nil, enables the memo-aware trace mode: detailed
	// (recording) cycles get the usual per-cycle pipetrace lines, and each
	// fast-forward chain is summarized with a single marker line —
	// fast-forwarded cycles are replayed, never re-simulated, so there is
	// no per-cycle pipeline state to print for them.
	TraceW io.Writer
	// Cancel, when non-nil, is polled at episode boundaries (amortized by
	// cancelMask); a non-nil result aborts the run with that error. The
	// core layer wires context.Context.Err through it.
	Cancel func() error

	now    uint64
	halted bool

	tracer        uarch.Tracer
	ffStart       uint64 // cycle at which the current fast-forward chain began
	chainEpisodes uint64 // episodes replayed in the current chain

	keyBuf     []byte
	script     []scriptEntry
	chain      uint64 // actions replayed since fast-forwarding last began
	cancelTick uint64 // episode boundaries toward the next cancellation poll

	// Memory-budget guard state (Options.Budget; see guardCheck).
	guard     guardLevel
	guardTick uint64 // boundaries since the guard last reclaimed

	// Shadow-verification sampling (Options.VerifyRate): every
	// verifyEvery-th hit is executed in detail and cross-checked instead
	// of replayed; 0 disables. Deterministic by construction — no RNG.
	verifyEvery uint64
	verifyTick  uint64

	// recScratch is the engine's single recorder, reset by newRecorder at
	// each episode boundary. The previous episode's recorder is always
	// finished (setLink called) before the next one starts, so reusing one
	// struct avoids a heap allocation per episode.
	recScratch recorder
}

// NewEngine prepares a fast-forwarding run.
func NewEngine(prog *program.Program, params uarch.Params, drv Driver, opts Options) *Engine {
	e := &Engine{
		Cache:  NewCache(opts),
		drv:    drv,
		prog:   prog,
		params: params,
	}
	switch rate := opts.VerifyRate; {
	case rate >= 1:
		e.verifyEvery = 1
	case rate > 0:
		e.verifyEvery = uint64(1/rate + 0.5)
	}
	return e
}

// Run simulates the whole program and returns the total cycle count.
//
// Run isolates panics at episode granularity: a runtime error or an
// injected allocation failure anywhere under it is converted into a typed
// *EngineFault (matching ErrEngineFault) carrying the offending
// configuration's fingerprint, instead of crashing the process. Deliberate
// panics with established contracts — core's run errors, uarch.Desync —
// re-panic and keep their existing handling.
func (e *Engine) Run(maxCycles uint64) (cycles uint64, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fault := &EngineFault{Fingerprint: hashKey(e.keyBuf), Cycle: e.now}
		switch v := r.(type) {
		case faultinject.Failure:
			fault.Cause, fault.CauseErr = v.Error(), v
		case runtime.Error:
			fault.Cause, fault.CauseErr = v.Error(), v
		default:
			panic(r)
		}
		cycles, err = e.now, fault
	}()
	if e.Obs != nil {
		e.Cache.RegisterMetrics(e.Obs.Metrics())
		e.Cache.SetObserver(e.Obs, func() uint64 { return e.now })
		reg := e.Obs.Metrics()
		reg.Gauge(obs.MetricGuardLevel, func() float64 { return float64(e.guard) })
		reg.Gauge(obs.MetricGuardBudgetBytes, func() float64 { return float64(e.Cache.opts.Budget) })
		reg.Gauge(obs.MetricGuardDegraded, func() float64 { return float64(e.Cache.stats.DegradedEpisodes) })
	}
	if e.Trace != nil {
		e.Cache.SetTracer(e.Trace, func() uint64 { return e.now })
	}
	if e.TraceW != nil {
		e.tracer = uarch.NewTextTracer(e.TraceW)
	}
	pl, err := uarch.New(e.params, e.prog, nil, e.prog.Entry)
	if err != nil {
		return 0, err
	}
	e.observePipeline(pl)
	var rec *recorder // recorder of the just-finished episode (for linking)

	for !e.halted {
		if e.now > maxCycles {
			return e.now, fmt.Errorf("memo: exceeded %d cycles without halting", maxCycles)
		}
		if err := e.cancelled(); err != nil {
			return e.now, err
		}
		if e.guardCheck() == guardDetailedOnly {
			// Budget exhausted and reclaiming did not help: simulate in
			// detail, detached from the cache, so the footprint cannot
			// grow. Cache state is frozen; the previous episode's chain
			// simply ends without a link (an ordinary replay stop).
			e.Cache.stats.DegradedEpisodes++
			rec = e.newRecorder(nil, nil)
			rec.noWrite = true
			pl.Env = rec
			e.recordEpisode(pl, rec)
			if rec.halt {
				e.halted = true
			}
			continue
		}
		// Detailed mode, at an episode boundary.
		e.keyBuf = pl.EncodeConfig(e.keyBuf[:0])
		e.Cache.Reclaim()
		cfg, _ := e.Cache.getOrCreate(e.keyBuf)
		e.Cache.mark(cfg)
		e.Cache.stats.Lookups++
		if rec != nil && !rec.noWrite {
			rec.setLink(cfg)
		}

		switch {
		case cfg.first != nil && e.shouldVerify():
			// Shadow verification: execute the episode through the
			// detailed simulator (ground truth — its side effects are the
			// real ones) while the recorder cross-checks the cached chain
			// action by action. A mismatch quarantines the chain and the
			// episode completes on the detailed results; agreement leaves
			// the chain marked and untouched.
			e.Cache.stats.EpisodesVerified++
			rec = e.newRecorder(cfg, nil)
			rec.verify = true
			pl.Env = rec
		case cfg.first != nil:
			// Hit: fast-forward until the program halts or an unseen
			// outcome requires detailed simulation again.
			e.Cache.stats.Hits++
			e.beginChain()
			resume, rerr := e.replayRun(cfg)
			if rerr != nil {
				return e.now, rerr
			}
			if resume == nil {
				e.halted = true
				break // halted during replay
			}
			// Reconstruct the detailed simulator from the stopping
			// configuration and re-drive it through the episode's
			// already-performed interactions.
			rec = e.newRecorder(resume, e.script)
			pl, err = uarch.Reconstruct(e.params, e.prog, rec, []byte(resume.key), e.now, e.drv.Heads())
			if err != nil {
				return e.now, fmt.Errorf("memo: reconstruct: %w", err)
			}
			e.observePipeline(pl)
		default:
			// Miss (fresh configuration or collected shell): record one
			// episode into it.
			rec = e.newRecorder(cfg, nil)
			pl.Env = rec
		}
		if e.halted {
			break
		}
		e.recordEpisode(pl, rec)
		if rec.halt {
			e.halted = true
		}
	}
	return e.now, nil
}

// shouldVerify implements the deterministic verification sampler: with
// VerifyRate r, every round(1/r)-th hit is verified (every hit at 1.0).
//
//fastsim:memo-policy: verification-sampling decision point — must depend only on the engine's simulated-history counters
func (e *Engine) shouldVerify() bool {
	if e.verifyEvery == 0 {
		return false
	}
	e.verifyTick++
	if e.verifyTick >= e.verifyEvery {
		e.verifyTick = 0
		return true
	}
	return false
}

// quarantineChain atomically evicts cfg's action chain after corruption was
// detected — by shadow verification (recorder.diverge) or by replayRun's
// structural guards. The configuration reverts to a shell and re-memoizes
// from scratch on its next visit; the run continues with correct results.
func (e *Engine) quarantineChain(cfg *config, reason string) {
	evicted := e.Cache.evictChain(cfg)
	s := &e.Cache.stats
	s.Quarantines++
	s.QuarantinedActions += evicted
	e.Obs.Quarantine(e.now, reason, evicted, cfg.hash)
	e.Trace.Quarantine(e.now, reason, evicted)
}

// guardLevel is the memory-budget guard state (Options.Budget).
type guardLevel uint8

const (
	// guardNormal: footprint below the soft watermark; no intervention.
	guardNormal guardLevel = iota
	// guardPressure: between the soft and hard watermarks; collections are
	// forced (under any policy) on a cooldown to push the footprint down.
	guardPressure
	// guardDetailedOnly: at or above the hard watermark and reclaiming did
	// not help; episodes run detached from the cache so it cannot grow.
	guardDetailedOnly
)

// String returns the guard level name used in guard events and docs.
func (g guardLevel) String() string {
	switch g {
	case guardPressure:
		return "pressure"
	case guardDetailedOnly:
		return "detailed-only"
	}
	return "normal"
}

const (
	// guardReclaimEvery is the pressure-band cooldown: episode boundaries
	// between forced collections while between the watermarks.
	guardReclaimEvery = 64
	// guardRetryEvery is how many degraded episodes pass between retry
	// collections once the engine is detailed-only.
	guardRetryEvery = 256
)

// setGuard records a guard-level transition: counters for the stats report
// and a structured event carrying the footprint that triggered it.
func (e *Engine) setGuard(lvl guardLevel) {
	if lvl == e.guard {
		return
	}
	switch lvl {
	case guardPressure:
		e.Cache.stats.GuardPressure++
	case guardDetailedOnly:
		e.Cache.stats.GuardDegraded++
	}
	e.guard = lvl
	if e.Obs != nil {
		e.Obs.Guard(e.now, lvl.String(), e.Cache.bytes)
	}
	if e.Trace != nil {
		e.Trace.Guard(e.now, lvl.String(), e.Cache.bytes)
	}
}

// guardCheck enforces Options.Budget at an episode boundary and returns the
// resulting guard level. Watermarks: soft = 3/4 Budget (start forcing
// collections), hard = 7/8 Budget (degrade if collecting cannot get back
// under). The remaining eighth absorbs the at-most-one-episode allocation
// between checks, so PeakBytes never exceeds Budget.
//
//fastsim:memo-policy: budget-guard decision point — the guard level must be a pure function of cache bytes and options
func (e *Engine) guardCheck() guardLevel {
	b := e.Cache.opts.Budget
	if b <= 0 {
		return guardNormal
	}
	soft, hard := b-b/4, b-b/8
	switch bytes := e.Cache.bytes; {
	case bytes < soft:
		e.setGuard(guardNormal)
	case bytes < hard:
		e.setGuard(guardPressure)
		e.guardTick++
		if e.guardTick >= guardReclaimEvery {
			e.guardTick = 0
			e.Cache.forceReclaim()
			if e.Cache.bytes < soft {
				e.setGuard(guardNormal)
			}
		}
	default:
		if e.guard == guardDetailedOnly {
			// Already degraded: collecting every boundary would thrash, so
			// retry only periodically and stay detached in between.
			e.guardTick++
			if e.guardTick < guardRetryEvery {
				return e.guard
			}
		}
		e.guardTick = 0
		e.Cache.forceReclaim()
		switch {
		case e.Cache.bytes >= hard:
			e.setGuard(guardDetailedOnly)
		case e.Cache.bytes >= soft:
			e.setGuard(guardPressure)
		default:
			e.setGuard(guardNormal)
		}
	}
	return e.guard
}

// observePipeline attaches the trace and metrics sinks to a freshly built
// detailed pipeline (the initial one, and each reconstruction after a
// replay stop).
func (e *Engine) observePipeline(pl *uarch.Pipeline) {
	pl.Tracer = e.tracer
	if e.Obs != nil {
		pl.RegisterMetrics(e.Obs.Metrics())
	}
}

// cancelMask amortizes cancellation polls: Cancel runs on the first
// episode boundary (so an already-cancelled context aborts before any real
// work) and then once per 1024, keeping context support off the
// per-episode hot path.
const cancelMask = 1023

func (e *Engine) cancelled() error {
	if e.Cancel == nil {
		return nil
	}
	e.cancelTick++
	if e.cancelTick&cancelMask != 1 {
		return nil
	}
	return e.Cancel()
}

func (e *Engine) beginChain() {
	e.chain = 0
	e.chainEpisodes = 0
	e.ffStart = e.now
	e.Obs.ReplayStart(e.now)
	e.Trace.ReplayBegin(e.now)
}

func (e *Engine) endChain() {
	s := &e.Cache.stats
	s.ChainCount++
	s.ChainTotal += e.chain
	if e.chain > s.ChainMax {
		s.ChainMax = e.chain
	}
	s.ChainHist.Add(e.chain)
	e.Obs.ReplayEnd(e.now, e.chainEpisodes, e.chain)
	e.Trace.ReplayEnd(e.now, e.chainEpisodes, e.chain)
	if e.TraceW != nil && e.chain > 0 {
		fmt.Fprintf(e.TraceW, "%8d | fast-forward from cycle %d: %d episodes, %d actions replayed\n",
			e.now, e.ffStart, e.chainEpisodes, e.chain)
	}
	e.chain = 0
}

// recordEpisode steps the detailed simulator until the end of the first
// cycle containing an interaction (or program halt). The recorder allocates
// or re-walks action nodes as interactions occur.
func (e *Engine) recordEpisode(pl *uarch.Pipeline, rec *recorder) {
	e.Obs.RecordStart(e.now)
	kind := obs.SpanRecord
	switch {
	case rec.verify:
		kind = obs.SpanVerify
	case rec.noWrite:
		kind = obs.SpanDegraded
	case rec.script != nil:
		kind = obs.SpanResume
	}
	e.Trace.RecordBegin(kind, e.now)
	for {
		rec.cycles++
		pl.Step()
		e.now = pl.Now
		if rec.interacted || pl.Done() {
			e.Cache.stats.EpisodesRecord++
			e.Cache.stats.DetailedCycles += uint64(rec.cycles)
			e.Obs.RecordEnd(e.now, uint64(rec.cycles), int64(rec.insts))
			e.Trace.RecordEnd(e.now, uint64(rec.cycles), int64(rec.insts))
			e.Obs.Tick(e.now)
			return
		}
	}
}

// replayRun fast-forwards from cfg along the unbroken action chain. It
// returns nil when the program halted, or the configuration at which a
// previously unseen outcome (or a collected gap) stopped fast-forwarding;
// e.script then holds the episode's already-performed interactions. A
// non-nil error reports cancellation.
func (e *Engine) replayRun(cfg *config) (*config, error) {
	drv := e.drv
	c := e.Cache
	for {
		if err := e.cancelled(); err != nil {
			e.endChain()
			return nil, err
		}
		adv := cfg.first
		e.script = e.script[:0]
		if adv == nil {
			// Shell left by a collection: the previous episode committed
			// fully, so simply re-record from this configuration.
			e.endChain()
			return cfg, nil
		}
		c.mark(cfg)
		c.markAct(adv)
		if adv.kind != actAdvance {
			// Structurally corrupt chain (a flipped kind, a stale node):
			// quarantine it and fall back to recording from here — no
			// payload from the bad chain has been applied yet.
			e.quarantineChain(cfg, fmt.Sprintf("episode starts with %v", adv.kind))
			e.endChain()
			return cfg, nil
		}
		// All interactions happen in the episode's final cycle, whose
		// number is one less than the episode-end cycle counter.
		now := e.now + uint64(adv.cycles) - 1
		heads := drv.Heads()
		act := adv.next

	episode:
		for {
			if act == nil {
				// Successor clipped by a collection mid-episode.
				c.stats.EdgeMisses++
				e.endChain()
				return cfg, nil
			}
			c.markAct(act)
			c.stats.ActionsReplayed++
			e.chain++
			if e.chain&replayCancelMask == 0 && e.Cancel != nil {
				// Mid-replay cancellation: chains can span millions of
				// actions without reaching an episode boundary, so poll the
				// context inside the chain too. The episode's detailed
				// resumption is abandoned, which is fine — cancellation
				// abandons the whole run.
				if err := e.Cancel(); err != nil {
					e.endChain()
					return nil, err
				}
			}
			switch act.kind {
			case actOutcome:
				out := drv.NextOutcome()
				e.script = append(e.script, scriptEntry{kind: actOutcome, out: out})
				act = act.edge(outcomeLabel(out))
			case actIssueLoad:
				d := drv.IssueLoad(heads.LQ+int(act.rel), now)
				e.script = append(e.script, scriptEntry{kind: actIssueLoad, delay: d})
				act = act.edge(int64(d))
			case actPollLoad:
				ready, d := drv.PollLoad(heads.LQ+int(act.rel), now)
				e.script = append(e.script, scriptEntry{kind: actPollLoad, ready: ready, delay: d})
				lbl := int64(readyEdgeLabel)
				if !ready {
					lbl = int64(d)
				}
				act = act.edge(lbl)
			case actIssueStore:
				drv.IssueStore(heads.SQ+int(act.rel), now)
				e.script = append(e.script, scriptEntry{kind: actIssueStore})
				act = act.next
			case actCancelLoad:
				drv.CancelLoad(heads.LQ + int(act.rel))
				e.script = append(e.script, scriptEntry{kind: actCancelLoad})
				act = act.next
			case actRollback:
				lq, sq := drv.Rollback(heads.Rec + int(act.rel))
				e.script = append(e.script, scriptEntry{kind: actRollback, lq: lq, sq: sq})
				act = act.next
			case actHalt:
				e.commit(adv)
				drv.HaltRetired()
				e.halted = true
				e.endChain()
				return nil, nil
			case actLink:
				if act.nextCfg == nil {
					c.stats.EdgeMisses++
					e.endChain()
					return cfg, nil
				}
				e.commit(adv)
				cfg = act.nextCfg
				break episode
			default:
				// Corrupt kind mid-chain. The episode's interactions so far
				// hit the real driver and are preserved in e.script, so the
				// detailed simulator resumes from cfg and re-drives them —
				// the same machinery as an ordinary replay stop — while the
				// poisoned chain is quarantined.
				e.quarantineChain(cfg, fmt.Sprintf("bad action kind %v", act.kind))
				e.endChain()
				return cfg, nil
			}
		}
	}
}

// replayCancelMask amortizes the in-chain cancellation poll to one check per
// 4096 replayed actions (~microseconds of replay work).
const replayCancelMask = 4095

// commit applies an episode's advance payload after all its interactions
// replayed successfully: the cycle counter moves, queue heads pop, and the
// retired instructions are attributed to replay.
func (e *Engine) commit(adv *action) {
	e.now += uint64(adv.cycles)
	e.drv.ApplyPops(int(adv.insts), int(adv.loads), int(adv.stores), int(adv.recs))
	s := &e.Cache.stats
	s.EpisodesReplay++
	s.ReplayCycles += uint64(adv.cycles)
	s.ReplayInsts += uint64(adv.insts)
	e.chainEpisodes++
	e.Obs.Tick(e.now)
}
