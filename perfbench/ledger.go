package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"

	"fastsim/internal/core"
	"fastsim/internal/emulator"
	"fastsim/internal/memo"
	"fastsim/internal/program"
	"fastsim/internal/server"
)

// call is one timed simulation request: a core.Run call, or an fssrv job
// timed by its client.
type call struct {
	key     string // the request's identity: program, engine and policy
	memoize bool   // FastSim (true) or SlowSim
	insts   uint64
	wall    time.Duration
	cpu     time.Duration // the process's CPU time over the call
	ok      bool
}

// epoch is the time origin of every span.
var epoch = time.Now()

// span is one timed call into a layer's public entry point. Spans of one
// request share its key.
type span struct {
	Name    string `json:"name"`
	Key     string `json:"key,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// counts are the deterministic work counters of one simulation, taken
// from its Result. Memo counters are per-run deltas: a warm-started run's
// Result.Memo also carries the statistics of the image it imported.
type counts struct {
	insts          uint64
	fastInsts      uint64 // instructions of FastSim runs
	actions        uint64 // actions replayed
	epRecord       uint64
	epReplay       uint64
	lookups        uint64
	hits           uint64
	detailedInsts  uint64
	replayInsts    uint64
	detailedCycles uint64 // cycles simulated by the detailed pipeline
	flushes        uint64
	collections    uint64
	peakBytes      uint64
	directInsts    uint64
	rollbacks      uint64
	l1Accesses     uint64
	cacheAccesses  uint64
	l1Misses       uint64
	preds          uint64
	mispreds       uint64
}

// countsOf extracts r's counters; base, when non-nil, is the memo state
// the run imported and is subtracted from r.Memo.
func countsOf(r *core.Result, base *memo.Stats) counts {
	c := counts{
		insts:         r.Insts,
		directInsts:   r.Direct.Insts,
		rollbacks:     r.Direct.Rollbacks,
		l1Accesses:    r.Cache.L1Hits + r.Cache.L1Misses,
		cacheAccesses: r.Cache.Loads + r.Cache.Stores,
		l1Misses:      r.Cache.L1Misses,
		preds:         r.BPredPredicts,
		mispreds:      r.BPredMispredicts,
	}
	if !r.Memoized {
		c.detailedCycles = r.Cycles
		return c
	}
	c.fastInsts = r.Insts
	m := r.Memo
	var b memo.Stats
	if base != nil {
		b = *base
	}
	c.actions = m.ActionsReplayed - b.ActionsReplayed
	c.epRecord = m.EpisodesRecord - b.EpisodesRecord
	c.epReplay = m.EpisodesReplay - b.EpisodesReplay
	c.lookups = m.Lookups - b.Lookups
	c.hits = m.Hits - b.Hits
	c.detailedInsts = m.DetailedInsts - b.DetailedInsts
	c.replayInsts = m.ReplayInsts - b.ReplayInsts
	c.detailedCycles = m.DetailedCycles - b.DetailedCycles
	c.flushes = m.Flushes - b.Flushes
	c.collections = m.Collections - b.Collections
	c.peakBytes = uint64(m.PeakBytes)
	return c
}

// withoutMemo keeps only the counters that do not depend on the p-action
// cache's state, which decides how many cycles are simulated in detail.
func (c counts) withoutMemo() counts {
	return counts{
		insts:         c.insts,
		directInsts:   c.directInsts,
		rollbacks:     c.rollbacks,
		l1Accesses:    c.l1Accesses,
		cacheAccesses: c.cacheAccesses,
		l1Misses:      c.l1Misses,
		preds:         c.preds,
		mispreds:      c.mispreds,
	}
}

func (c *counts) add(o counts) {
	c.insts += o.insts
	c.actions += o.actions
	c.epRecord += o.epRecord
	c.epReplay += o.epReplay
	c.lookups += o.lookups
	c.hits += o.hits
	c.detailedInsts += o.detailedInsts
	c.replayInsts += o.replayInsts
	c.detailedCycles += o.detailedCycles
	c.flushes += o.flushes
	c.collections += o.collections
	c.peakBytes = max(c.peakBytes, o.peakBytes)
	c.directInsts += o.directInsts
	c.rollbacks += o.rollbacks
	c.l1Accesses += o.l1Accesses
	c.fastInsts += o.fastInsts
	c.cacheAccesses += o.cacheAccesses
	c.l1Misses += o.l1Misses
	c.preds += o.preds
	c.mispreds += o.mispreds
}

// arch is a program's architectural outcome from the reference emulator.
type arch struct {
	insts    uint64
	checksum uint32
	exit     uint32
}

func emulate(p *program.Program) (arch, error) {
	cpu := emulator.New(p)
	if err := cpu.Run(0); err != nil {
		return arch{}, fmt.Errorf("emulator: %w", err)
	}
	return arch{insts: cpu.InstCount, checksum: cpu.Checksum, exit: cpu.ExitCode}, nil
}

func (a arch) check(insts uint64, checksum, exit uint32) error {
	if insts != a.insts || checksum != a.checksum || exit != a.exit {
		return fmt.Errorf("architectural result (insts %d, checksum %#x, exit %d) differs from the emulator's (%d, %#x, %d)",
			insts, checksum, exit, a.insts, a.checksum, a.exit)
	}
	return nil
}

// sameSimulation reports whether two Results agree on everything the
// simulation computes. Like fssrv's result digest it ignores how the run
// went: host time, memo accounting, snapshot and shared-cache activity.
func sameSimulation(a, b *core.Result) bool {
	strip := func(r *core.Result) core.Result {
		c := *r
		c.WallTime = 0
		c.Memoized = false
		c.Memo = memo.Stats{}
		c.Snapshot = core.SnapshotStatus{}
		c.Shared = core.SharedStatus{}
		return c
	}
	x, y := strip(a), strip(b)
	return reflect.DeepEqual(&x, &y)
}

// phase collects one timed phase of a run: every call, its spans when
// traced, the work counters of the calls, and any failures.
type phase struct {
	traced bool

	mu        sync.Mutex
	calls     []call
	spans     []span
	failures  []string
	attempted int
	failed    int
	work      counts            // summed over every successful call
	perKey    map[string]counts // the first successful call of each key

	// Traced measurements of individual layer entry points.
	warmNs        map[string][]int64 // warm core.Run spans per image
	replayActions uint64             // actions replayed by those runs
	loadNs        map[string][]int64 // snapshot.Load per image
	encodeNs      map[string][]int64 // snapshot.Encode per image
	imageBytes    map[string]int
	submitMs      []float64    // server.Submit
	waitMs        []float64    // Job.Wait
	submitWaitMs  []float64    // Submit plus Wait, per job
	server        server.Stats // fssrv counters accrued over the phase

	wall      time.Duration
	peakRSSMB float64     // highest resident set sampled during the phase
	stealFrac float64     // the host's steal time over the phase
	prof      attribution // the CPU profile's split by layer, when traced
}

func newPhase(traced bool) *phase {
	return &phase{
		traced:     traced,
		perKey:     map[string]counts{},
		warmNs:     map[string][]int64{},
		loadNs:     map[string][]int64{},
		encodeNs:   map[string][]int64{},
		imageBytes: map[string]int{},
	}
}

func (p *phase) span(name, key string, start time.Time, d time.Duration) {
	if !p.traced {
		return
	}
	p.mu.Lock()
	p.spans = append(p.spans, span{Name: name, Key: key, StartNs: start.Sub(epoch).Nanoseconds(), DurNs: d.Nanoseconds()})
	p.mu.Unlock()
}

// record adds one call. A non-nil err marks it failed: it counts in
// failed_frac and as missing every latency limit, never as a timing.
func (p *phase) record(c call, cnt *counts, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	c.ok = err == nil
	if err != nil {
		p.failed++
		if len(p.failures) < 8 {
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", c.key, err))
		}
	} else if cnt != nil {
		p.work.add(*cnt)
		if _, seen := p.perKey[c.key]; !seen {
			p.perKey[c.key] = *cnt
		}
	}
	p.calls = append(p.calls, c)
}

// requests groups the phase's calls by request. A simulation is
// deterministic, so the calls of one request differ only by host noise;
// figures taken per request and then combined do not shift with how many
// calls of each request a run happened to finish.
func (p *phase) requests() map[string][]call {
	out := map[string][]call{}
	for _, c := range p.calls {
		out[c.key] = append(out[c.key], c)
	}
	return out
}

// kips is committed simulated instructions per second, in thousands, over
// the successful calls of one engine: one of each distinct request, at
// its median time, so neither a run that ends part way through a rotation
// nor one call slowed by a noisy neighbour skews it. With cpu set the
// time is the process's CPU time over the call, else its wall time.
func (p *phase) kips(memoize, cpu bool) float64 {
	var total, secs float64
	for _, calls := range p.requests() {
		var ts []float64
		var insts uint64
		for _, c := range calls {
			if c.ok && c.memoize == memoize {
				insts = c.insts
				ts = append(ts, pick(c, cpu).Seconds())
			}
		}
		if len(ts) > 0 {
			total += float64(insts)
			secs += median(ts)
		}
	}
	if secs == 0 {
		return 0
	}
	return total / secs / 1000
}

func pick(c call, cpu bool) time.Duration {
	if cpu {
		return c.cpu
	}
	return c.wall
}

// latency is the q-quantile of each request's latencies in ms, averaged
// over the requests; failed calls count as +Inf. With cpu set a call's
// latency is the process's CPU time over it.
func (p *phase) latency(q float64, cpu bool) float64 {
	var sum float64
	reqs := p.requests()
	for _, calls := range reqs {
		xs := make([]float64, len(calls))
		for i, c := range calls {
			xs[i] = math.Inf(1)
			if c.ok {
				xs[i] = ms(pick(c, cpu))
			}
		}
		sum += quantile(xs, q)
	}
	return div(sum, float64(len(reqs)))
}

// latencies returns every call's latency in ms; failed calls are +Inf.
func (p *phase) latencies() []float64 {
	out := make([]float64, 0, len(p.calls))
	for _, c := range p.calls {
		if c.ok {
			out = append(out, ms(c.wall))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

func (p *phase) completed() int {
	n := 0
	for _, c := range p.calls {
		if c.ok {
			n++
		}
	}
	return n
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	if math.IsInf(xs[lo+1], 1) {
		return xs[lo+1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not load).
func ratio(a, b uint64) float64 { return div(float64(a), float64(b)) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
