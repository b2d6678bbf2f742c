package memo

import (
	"fmt"
	"sort"
	"strings"

	"fastsim/internal/faultinject"
	"fastsim/internal/obs"
)

// actionKind enumerates the simulator actions of §4.2. Every way the
// detailed µ-architecture simulator touches the world outside the iQ is one
// of these.
type actionKind uint8

const (
	actAdvance    actionKind = iota // advance cycles; retire (pop) instructions
	actOutcome                      // consume a control outcome (labelled edges)
	actIssueLoad                    // cache LoadRequest (edges labelled by interval)
	actPollLoad                     // cache LoadPoll (edges: ready / new interval)
	actIssueStore                   // cache Store
	actCancelLoad                   // cancel a squashed load's cache request
	actRollback                     // mispredicted branch resolved: roll back
	actHalt                         // the halt instruction retired
	actLink                         // end of episode: link to the next configuration
)

func (k actionKind) String() string {
	return [...]string{"advance", "outcome", "issue-load", "poll-load",
		"issue-store", "cancel-load", "rollback", "halt", "link"}[k]
}

// Approximate memory footprint charged per allocation, mirroring the
// paper's p-action cache accounting.
const (
	actionBytes     = 64 // one action node, including two inline edges
	edgeExtraBytes  = 24 // each edge beyond the inline pair
	configOverhead  = 48 // config struct + hash-table slot
	readyEdgeLabel  = -1 // PollLoad label when the data was ready
	labelKindShift  = 34 // outcome labels: kind in high bits, payload below
	labelKindBranch = 1 << labelKindShift
	labelKindIJump  = 2 << labelKindShift
	labelKindHalt   = 3 << labelKindShift
	labelKindStall  = 4 << labelKindShift
)

// action is one node of the p-action graph.
type action struct {
	kind actionKind
	rel  int32 // queue slot relative to the episode-start head

	// actAdvance payload: cycles simulated and instructions retired in
	// this episode.
	cycles uint32
	insts  int32
	loads  int32
	stores int32
	recs   int32

	next    *action // successor for unlabelled kinds
	nextCfg *config // actLink target

	// Labelled successors: two inline slots, then an overflow map.
	l1, l2 int64
	e1, e2 *action
	edges  map[int64]*action

	gen uint32 // generation of last use (collection policies)
	old bool   // survived a minor collection (generational policy)
}

// edge returns the successor for a label, or nil.
func (a *action) edge(label int64) *action {
	if a.e1 != nil && a.l1 == label {
		return a.e1
	}
	if a.e2 != nil && a.l2 == label {
		return a.e2
	}
	if a.edges != nil {
		return a.edges[label]
	}
	return nil
}

// setEdge installs a successor for a label and returns the bytes charged.
func (a *action) setEdge(label int64, to *action) int {
	switch {
	case a.e1 == nil || a.l1 == label:
		a.l1, a.e1 = label, to
		return 0
	case a.e2 == nil || a.l2 == label:
		a.l2, a.e2 = label, to
		return 0
	default:
		if a.edges == nil {
			a.edges = make(map[int64]*action)
		}
		if _, exists := a.edges[label]; exists {
			a.edges[label] = to
			return 0
		}
		a.edges[label] = to
		return edgeExtraBytes
	}
}

// eachEdge calls f for every labelled successor in ascending label order,
// so traversals that reach output (dump, DOT export) are byte-stable across
// runs. Replay never iterates edges — it follows one label via edge() — so
// the sort is off the hot path.
func (a *action) eachEdge(f func(label int64, to *action)) {
	type labelled struct {
		l  int64
		to *action
	}
	es := make([]labelled, 0, 2+len(a.edges))
	if a.e1 != nil {
		es = append(es, labelled{a.l1, a.e1})
	}
	if a.e2 != nil {
		es = append(es, labelled{a.l2, a.e2})
	}
	//fastsim:order-independent: edges are collected here and sorted by label below, before f observes them
	for l, t := range a.edges {
		es = append(es, labelled{l, t})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].l < es[j].l })
	for _, e := range es {
		f(e.l, e.to)
	}
}

// config is one memoized µ-architecture configuration.
type config struct {
	key   string  // encoded iQ snapshot (uarch.EncodeConfig)
	first *action // episode chain; nil for shells awaiting re-recording
	hash  uint64  // hashKey(key), computed once at creation
	hnext *config // configTable bucket chain
	gen   uint32
	old   bool
}

// Cache is the p-action cache with its replacement policy.
type Cache struct {
	opts   Options
	tab    *configTable
	arena  actionArena
	bytes  int
	live   int // live action nodes (for per-collection survival rates)
	gen    uint32
	minors int
	stats  Stats

	// Observability: replacement activity is reported as structured
	// events and reclaim spans, stamped with the engine's cycle counter
	// via nowFn.
	obs   *obs.Observer
	tr    *obs.Tracer
	nowFn func() uint64
}

// SetObserver attaches the observability sink; now supplies the simulated
// cycle counter events are stamped with.
func (c *Cache) SetObserver(o *obs.Observer, now func() uint64) {
	c.obs = o
	c.nowFn = now
}

// SetTracer attaches the span tracer: every replacement-policy action
// (flush, collection, forced collection) becomes a reclaim span.
func (c *Cache) SetTracer(t *obs.Tracer, now func() uint64) {
	c.tr = t
	c.nowFn = now
}

// RegisterMetrics publishes the p-action cache's counters, footprint gauge
// and replay-chain histogram into the observability registry.
func (c *Cache) RegisterMetrics(r *obs.Registry) {
	r.Counter(obs.MetricMemoConfigs, &c.stats.Configs)
	r.Counter(obs.MetricMemoActions, &c.stats.Actions)
	r.Gauge(obs.MetricMemoBytes, func() float64 { return float64(c.bytes) })
	r.Counter(obs.MetricMemoLookups, &c.stats.Lookups)
	r.Counter(obs.MetricMemoHits, &c.stats.Hits)
	r.Counter(obs.MetricMemoEpisodesRecord, &c.stats.EpisodesRecord)
	r.Counter(obs.MetricMemoEpisodesReplay, &c.stats.EpisodesReplay)
	r.Counter(obs.MetricMemoDetailedInsts, &c.stats.DetailedInsts)
	r.Counter(obs.MetricMemoReplayInsts, &c.stats.ReplayInsts)
	r.Histogram(obs.MetricMemoChainHist, &c.stats.ChainHist)
	r.Counter(obs.MetricMemoQuarantines, &c.stats.Quarantines)
	r.Counter(obs.MetricMemoQuarantinedActs, &c.stats.QuarantinedActions)
	r.Counter(obs.MetricMemoVerifyEpisodes, &c.stats.EpisodesVerified)
	r.Counter(obs.MetricMemoVerifyDivergences, &c.stats.VerifyDivergences)
}

// NewCache returns an empty p-action cache.
func NewCache(opts Options) *Cache {
	if opts.MajorEvery <= 0 {
		opts.MajorEvery = 4
	}
	if opts.Policy == PolicyUnbounded {
		opts.Limit = 0
	}
	return &Cache{opts: opts, tab: newConfigTable(0), gen: 1}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Bytes returns the current footprint.
func (c *Cache) Bytes() int { return c.bytes }

// Len returns the number of configurations (including shells).
func (c *Cache) Len() int { return c.tab.n }

// lookup finds a configuration without allocating.
func (c *Cache) lookup(key []byte) *config {
	return c.tab.find(key, hashKey(key))
}

// getOrCreate returns the configuration for key, allocating it if needed.
// The key hash is computed once and serves both the probe and, on a miss,
// the insert; the key bytes are interned only when a configuration is
// actually created.
func (c *Cache) getOrCreate(key []byte) (cfg *config, created bool) {
	h := hashKey(key)
	if cfg = c.tab.find(key, h); cfg != nil {
		return cfg, false
	}
	cfg = &config{key: string(key), hash: h, gen: c.gen}
	c.tab.insert(cfg)
	c.stats.Configs++
	c.stats.ConfigBytesC += uint64(len(key) + configOverhead)
	if len(key) >= 6 {
		// Byte 5 of a uarch configuration key is the iQ entry count; a
		// naive (uncompressed) snapshot would spend ~16 bytes per entry.
		c.stats.NaiveBytesC += uint64(16 + 16*int(key[5]))
	}
	c.addBytes(len(key) + configOverhead)
	return cfg, true
}

// newAction allocates an action node from the arena.
func (c *Cache) newAction(kind actionKind, rel int32) *action {
	if c.opts.Inject != nil && c.opts.Inject.Fire(faultinject.SiteMemoAlloc) {
		panic(faultinject.Failure{Site: faultinject.SiteMemoAlloc, N: c.opts.Inject.Seen(faultinject.SiteMemoAlloc)})
	}
	c.stats.Actions++
	c.live++
	c.addBytes(actionBytes)
	a := c.arena.alloc()
	a.kind = kind
	a.rel = rel
	a.gen = c.gen
	return a
}

func (c *Cache) addBytes(n int) {
	c.bytes += n
	if c.bytes > c.stats.PeakBytes {
		c.stats.PeakBytes = c.bytes
	}
	c.stats.Bytes = c.bytes
}

// overLimit reports whether the cache exceeds its configured limit.
//
//fastsim:memo-policy: reclaim-trigger decision point — pure in cache bytes and options
func (c *Cache) overLimit() bool {
	return c.opts.Limit > 0 && c.bytes > c.opts.Limit
}

// Reclaim applies the replacement policy if the cache is over its limit.
// It must only be called at an episode boundary in recording mode (no
// replay position can be held across it).
//
//fastsim:memo-policy: eviction decision point — what survives a reclaim must be a pure function of cache state
func (c *Cache) Reclaim() {
	if !c.overLimit() {
		return
	}
	if c.obs != nil {
		c.obs.PActionLimit(c.nowFn(), c.bytes)
	}
	before := c.bytes
	switch c.opts.Policy {
	case PolicyFlush:
		if c.obs != nil {
			c.obs.PActionFlush(c.nowFn(), c.bytes)
		}
		if c.tr != nil {
			c.tr.ReclaimBegin("flush", c.nowFn())
		}
		c.flush()
	case PolicyGC:
		if c.tr != nil {
			c.tr.ReclaimBegin("gc", c.nowFn())
		}
		c.collect(false)
	case PolicyGenGC:
		c.minors++
		minor := c.minors%c.opts.MajorEvery != 0
		if c.tr != nil {
			op := "gc"
			if minor {
				op = "minor-gc"
			}
			c.tr.ReclaimBegin(op, c.nowFn())
		}
		c.collect(minor)
	default:
		return // PolicyUnbounded: nothing reclaimed, no span opened
	}
	if c.tr != nil {
		c.tr.ReclaimEnd(c.nowFn(), before, c.bytes)
	}
}

// forceReclaim reclaims regardless of the Limit check — the budget guard's
// lever. PolicyFlush discards everything as usual; every other policy
// (including PolicyUnbounded, which has no reclaim of its own) runs a major
// collection, keeping only what was used since the last one.
//
//fastsim:memo-policy: forced-eviction decision point — survivors must be a pure function of cache state
func (c *Cache) forceReclaim() {
	before := c.bytes
	if c.opts.Policy == PolicyFlush {
		if c.obs != nil {
			c.obs.PActionFlush(c.nowFn(), c.bytes)
		}
		if c.tr != nil {
			c.tr.ReclaimBegin("flush", c.nowFn())
			defer func() { c.tr.ReclaimEnd(c.nowFn(), before, c.bytes) }()
		}
		c.flush()
		return
	}
	if c.tr != nil {
		c.tr.ReclaimBegin("forced-gc", c.nowFn())
		defer func() { c.tr.ReclaimEnd(c.nowFn(), before, c.bytes) }()
	}
	c.collect(false)
}

// evictChain quarantines cfg's action chain: every node of the chain tree
// is uncharged, cleared (so the orphans retain nothing and the next
// collection's sweep recycles them) and the configuration reverts to a
// shell, which re-memoizes from scratch on its next visit. Links from other
// configurations into cfg stay valid — a link to a shell is an ordinary
// replay stop. Returns the number of evicted actions.
func (c *Cache) evictChain(cfg *config) uint64 {
	var evicted uint64
	var stack []*action
	if cfg.first != nil {
		stack = append(stack, cfg.first)
	}
	cfg.first = nil
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		evicted++
		c.bytes -= actionBytes
		if a.next != nil {
			stack = append(stack, a.next)
		}
		if a.e1 != nil {
			stack = append(stack, a.e1)
		}
		if a.e2 != nil {
			stack = append(stack, a.e2)
		}
		if a.edges != nil {
			c.bytes -= len(a.edges) * edgeExtraBytes
			//fastsim:order-independent: eviction only pushes targets and adjusts counters; no order reaches output
			for _, t := range a.edges {
				stack = append(stack, t)
			}
		}
		*a = action{} // gen 0, old false: dead at the next sweep
	}
	c.live -= int(evicted)
	c.stats.Bytes = c.bytes
	return evicted
}

// flush discards the entire p-action cache (§4.3's "flush on full"). The
// arena releases every slab wholesale; a recorder mid-episode may still hold
// nodes of the old graph, which stay valid Go objects until it drops them.
func (c *Cache) flush() {
	c.tab = newConfigTable(0)
	c.arena.reset()
	c.bytes = 0
	c.live = 0
	c.stats.Bytes = 0
	c.stats.Flushes++
}

// collect keeps only configurations and actions used since the last
// collection (gen == current). With minorOnly, entries that survived a
// previous collection (old) are exempt — the generational policy.
//
// The mark walk is an explicit-stack traversal: replay chains grow with the
// episode length, and a recursive walk over a multi-million-node chain would
// overflow the goroutine stack. The p-action graph is a tree (configs link
// to configs, never into the middle of another chain), so each node is
// visited exactly once and the stack depth is bounded by live fan-out, not
// chain length.
func (c *Cache) collect(minorOnly bool) {
	c.stats.Collections++
	c.stats.LiveBeforeColl += uint64(c.live)
	keepAct := func(a *action) bool {
		return a.gen == c.gen || (minorOnly && a.old)
	}
	keepCfg := func(cf *config) bool {
		return cf.gen == c.gen || (minorOnly && cf.old)
	}

	// Pass 1: gather kept configurations (table order is deterministic) and
	// push their chain roots; then walk, clipping pointers to dead actions
	// and remembering which configurations surviving links reference.
	kept := make([]*config, 0, c.tab.n)
	stack := make([]*action, 0, 64)
	c.tab.each(func(cf *config) {
		if keepCfg(cf) {
			kept = append(kept, cf)
			if cf.first != nil {
				if keepAct(cf.first) {
					stack = append(stack, cf.first)
				} else {
					cf.first = nil
				}
			}
		}
	})

	var refs []*config
	refSeen := make(map[*config]bool)
	bytes := 0
	var survivors uint64
	var labels []int64 // reused scratch for overflow-edge compaction
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		survivors++
		a.old = true
		bytes += actionBytes
		if a.next != nil {
			if keepAct(a.next) {
				stack = append(stack, a.next)
			} else {
				a.next = nil
			}
		}
		if a.nextCfg != nil && !refSeen[a.nextCfg] {
			refSeen[a.nextCfg] = true
			refs = append(refs, a.nextCfg)
		}
		if a.e1 != nil && !keepAct(a.e1) {
			a.e1 = nil
		}
		if a.e2 != nil && !keepAct(a.e2) {
			a.e2 = nil
		}
		if a.edges != nil {
			//fastsim:order-independent: deletes dead entries; survivors are re-read in sorted label order below
			for l, t := range a.edges {
				if !keepAct(t) {
					delete(a.edges, l)
				}
			}
			// Compact surviving overflow edges into inline slots freed by
			// the clip, smallest label first, so the overflow charge below
			// reflects the surviving edge count rather than stale map
			// membership.
			if len(a.edges) > 0 && (a.e1 == nil || a.e2 == nil) {
				labels = labels[:0]
				//fastsim:order-independent: keys are sorted before use
				for l := range a.edges {
					labels = append(labels, l)
				}
				sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
				for _, l := range labels {
					if a.e1 == nil {
						a.l1, a.e1 = l, a.edges[l]
						delete(a.edges, l)
					} else if a.e2 == nil {
						a.l2, a.e2 = l, a.edges[l]
						delete(a.edges, l)
					} else {
						break
					}
				}
			}
			if len(a.edges) == 0 {
				a.edges = nil
			} else {
				labels = labels[:0]
				//fastsim:order-independent: keys are sorted before use
				for l := range a.edges {
					labels = append(labels, l)
				}
				sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
				for i := len(labels) - 1; i >= 0; i-- {
					stack = append(stack, a.edges[labels[i]])
				}
				bytes += len(a.edges) * edgeExtraBytes
			}
		}
		if a.e2 != nil {
			stack = append(stack, a.e2)
		}
		if a.e1 != nil {
			stack = append(stack, a.e1)
		}
	}

	// Pass 2: rebuild the table. Dropped configurations still referenced by
	// surviving links stay as shells (key only, chain re-recorded on the
	// next visit); unreferenced ones disappear.
	next := newConfigTable(len(kept))
	for _, cf := range kept {
		cf.old = true
		next.insert(cf)
		bytes += len(cf.key) + configOverhead
	}
	for _, cf := range refs {
		if next.findString(cf.key, cf.hash) == nil {
			cf.first = nil
			cf.old = true
			next.insert(cf)
			bytes += len(cf.key) + configOverhead
		}
	}
	if c.obs != nil {
		c.obs.PActionGC(c.nowFn(), minorOnly, uint64(c.live), survivors, bytes)
	}
	c.stats.Survivors += survivors
	c.live = int(survivors)
	c.tab = next
	c.bytes = bytes
	c.stats.Bytes = bytes
	// Sweep the arena while keepAct is still valid: dead slots are zeroed
	// (clearing pointers that would retain dead subgraphs) and recycled.
	c.arena.sweep(keepAct)
	c.gen++
	if c.gen == 0 { // wrapped; restart marking cleanly
		c.gen = 1
	}
}

// mark records a use of cfg for the collection policies.
func (c *Cache) mark(cfg *config) { cfg.gen = c.gen }

// markAct records a use of an action.
func (c *Cache) markAct(a *action) { a.gen = c.gen }

// dump renders the graph rooted at key for debugging. The traversal uses an
// explicit stack so chains of arbitrary depth cannot overflow the goroutine
// stack; frames replay the recursive order exactly (node line, then the
// unlabelled successor subtree, then each labelled edge in ascending label
// order), so the output bytes are unchanged.
func (c *Cache) dump(key string) string {
	cfg := c.tab.findString(key, hashString(key))
	if cfg == nil {
		return "<none>"
	}
	if cfg.first == nil {
		return ""
	}
	var b strings.Builder
	indent := func(depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
	}
	type frame struct {
		act   *action
		depth int
		label int64
		edge  bool // print "[label]->" at depth, then act at depth+1
	}
	stack := []frame{{act: cfg.first}}
	var kids []frame
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := f.depth
		if f.edge {
			indent(d)
			fmt.Fprintf(&b, "[%d]->\n", f.label)
			d++
		}
		indent(d)
		fmt.Fprintf(&b, "%s rel=%d cyc=%d\n", f.act.kind, f.act.rel, f.act.cycles)
		kids = kids[:0]
		if f.act.next != nil {
			kids = append(kids, frame{act: f.act.next, depth: d + 1})
		}
		f.act.eachEdge(func(l int64, t *action) {
			kids = append(kids, frame{act: t, depth: d, label: l, edge: true})
		})
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return b.String()
}
