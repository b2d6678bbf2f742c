package memo

import (
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

// labelled reports whether actions of kind k branch on outcome-labelled
// edges; every other kind has at most one, unlabelled, successor.
func (k actionKind) labelled() bool {
	return k == actOutcome || k == actIssueLoad || k == actPollLoad
}

// Approximate memory footprint charged per allocation, mirroring the
// paper's p-action cache accounting: a node covers two successors, and each
// one beyond is charged as an extra edge. actionBytes is also the node's Go
// size (TestActionLayout pins it).
const (
	actionBytes     = 64 // one action node, with up to two successors
	edgeExtraBytes  = 24 // each successor beyond the second
	configOverhead  = 48 // config struct + hash-table slot
	readyEdgeLabel  = -1 // PollLoad label when the data was ready
	labelKindShift  = 34 // outcome labels: kind in high bits, payload below
	labelKindBranch = 1 << labelKindShift
	labelKindIJump  = 2 << labelKindShift
	labelKindHalt   = 3 << labelKindShift
	labelKindStall  = 4 << labelKindShift
)

// action is one node of the p-action graph. The graph is a tree stored
// first-child/next-sibling: next is the first successor and sib the
// parent's next one. An unlabelled kind has at most the one successor; a
// labelled kind's successors form a list in ascending label order, each
// carrying the label of its own incoming edge.
type action struct {
	kind actionKind
	old  bool  // survived a minor collection (generational policy)
	rel  int32 // queue slot relative to the episode-start head

	// actAdvance payload: cycles simulated and instructions retired in
	// this episode.
	cycles uint32
	insts  int32
	loads  int32
	stores int32
	recs   int32

	gen uint32 // generation of last use (collection policies)

	next    *action // first successor
	sib     *action // next successor of this node's parent
	nextCfg *config // actLink target
	label   int64   // label of the edge into this node (labelled parents)
}

// edge returns the successor for a label, or nil.
func (a *action) edge(label int64) *action {
	for k := a.next; k != nil && k.label <= label; k = k.sib {
		if k.label == label {
			return k
		}
	}
	return nil
}

// setEdge links to as the successor for label, which must not have one
// yet, and returns the bytes charged: edgeExtraBytes once a node has more
// than two successors.
func (a *action) setEdge(label int64, to *action) int {
	p := &a.next
	for *p != nil && (*p).label < label {
		p = &(*p).sib
	}
	to.label, to.sib = label, *p
	*p = to
	if a.next.sib != nil && a.next.sib.sib != nil {
		return edgeExtraBytes
	}
	return 0
}

// extraEdgeBytes is the charge for a's successors beyond the second.
func (a *action) extraEdgeBytes() int {
	n := 0
	for k := a.next; k != nil; k = k.sib {
		n++
	}
	if n <= 2 {
		return 0
	}
	return (n - 2) * edgeExtraBytes
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
	// Inject, when non-nil, arms the memo.alloc fault site: an action
	// allocation fails by panicking with a faultinject.Failure. Chaos
	// testing only; nil costs one pointer check per allocation.
	Inject *faultinject.Injector

	opts   Options
	tab    *configTable
	arena  actionArena
	bytes  int
	live   int // live action nodes (for per-collection survival rates)
	gen    uint32
	minors int
	stats  Stats

	// Observability: replacement activity is reported to the Observer,
	// stamped with the engine's cycle counter via nowFn.
	obs   *obs.Observer
	nowFn func() uint64
}

// SetObserver attaches the observability sink; now supplies the simulated
// cycle counter events are stamped with.
func (c *Cache) SetObserver(o *obs.Observer, now func() uint64) {
	c.obs = o
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

// Stats returns a copy of the counters, with Bytes read from the footprint.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Bytes = c.bytes
	return s
}

// Bytes returns the current footprint.
func (c *Cache) Bytes() int { return c.bytes }

// Len returns the number of configurations (including shells).
func (c *Cache) Len() int { return c.tab.n }

// lookup finds a configuration without allocating.
func (c *Cache) lookup(key []byte) *config {
	return find(c.tab, key, hashKey(key))
}

// getOrCreate returns the configuration for key, allocating it if needed.
// The key hash is computed once and serves both the probe and, on a miss,
// the insert; the key bytes are interned only when a configuration is
// actually created.
func (c *Cache) getOrCreate(key []byte) (cfg *config, created bool) {
	h := hashKey(key)
	if cfg = find(c.tab, key, h); cfg != nil {
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
	if c.Inject != nil && c.Inject.Fire(faultinject.SiteMemoAlloc) {
		panic(faultinject.Failure{Site: faultinject.SiteMemoAlloc, N: c.Inject.Seen(faultinject.SiteMemoAlloc)})
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
	switch c.opts.Policy {
	case PolicyFlush:
		c.reclaim(obs.ReclaimFlush)
	case PolicyGC:
		c.reclaim(obs.ReclaimGC)
	case PolicyGenGC:
		c.minors++
		if c.minors%c.opts.MajorEvery != 0 {
			c.reclaim(obs.ReclaimMinorGC)
		} else {
			c.reclaim(obs.ReclaimGC)
		}
	}
	// PolicyUnbounded: nothing reclaimed, nothing reported.
}

// forceReclaim reclaims regardless of the Limit check — the budget guard's
// lever. PolicyFlush discards everything as usual; every other policy
// (including PolicyUnbounded, which has no reclaim of its own) runs a major
// collection, keeping only what was used since the last one.
//
//fastsim:memo-policy: forced-eviction decision point — survivors must be a pure function of cache state
func (c *Cache) forceReclaim() {
	if c.opts.Policy == PolicyFlush {
		c.reclaim(obs.ReclaimFlush)
	} else {
		c.reclaim(obs.ReclaimForcedGC)
	}
}

// reclaim runs one replacement-policy action, named by one of the
// obs.Reclaim* ops, and reports it to the Observer.
func (c *Cache) reclaim(op string) {
	before := c.bytes
	if c.obs != nil {
		c.obs.ReclaimBegin(op, c.nowFn(), before)
	}
	if op == obs.ReclaimFlush {
		c.flush()
	} else {
		c.collect(op == obs.ReclaimMinorGC)
	}
	if c.obs != nil {
		c.obs.ReclaimEnd(c.nowFn(), before, c.bytes)
	}
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
		c.bytes -= actionBytes + a.extraEdgeBytes()
		for k := a.next; k != nil; k = k.sib {
			stack = append(stack, k)
		}
		*a = action{} // gen 0, old false: dead at the next sweep
	}
	c.live -= int(evicted)
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
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		survivors++
		a.old = true
		bytes += actionBytes
		if a.nextCfg != nil && !refSeen[a.nextCfg] {
			refSeen[a.nextCfg] = true
			refs = append(refs, a.nextCfg)
		}
		// Clip dead successors out of the list and walk the survivors.
		for p := &a.next; *p != nil; {
			if k := *p; keepAct(k) {
				stack = append(stack, k)
				p = &k.sib
			} else {
				*p = k.sib
			}
		}
		bytes += a.extraEdgeBytes()
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
		if find(next, cf.key, cf.hash) == nil {
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
