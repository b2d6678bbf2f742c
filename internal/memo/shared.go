package memo

import "sync"

// SharedCache is a process-wide exchange point for recorded
// p-action graphs, keyed by the run fingerprint (program + µ-architecture +
// cache + predictor — see core's fingerprint). It is the multi-tenant
// counterpart of the snapshot file: concurrent runs of the same fingerprint
// warm each other instead of each recording the same chains from scratch.
//
// The exchange format is exactly the snapshot layer's: an immutable *Graph
// produced by ExportGraph and consumed by ImportGraph. Because a
// warm-started run is bit-identical to a cold run (the snapshot
// tentpole invariant), sharing can only change how fast a tenant gets its
// Result, never what the Result is — which is what makes a shared cache
// safe to drop into a multi-tenant server.
//
// Publication is epoch-based: each fingerprint's entry carries a
// monotonically increasing epoch, bumped by every accepted publish and
// every poison. A run Acquires the current (graph, epoch) before
// simulating, records on top of the imported chains, and offers its merged
// export back with the acquired epoch as its base:
//
//   - base == current epoch: the export is the published graph plus the
//     run's newly recorded delta — accepted, epoch bumps.
//   - base < current epoch (a neighbour published first): accepted only if
//     it strictly grows the action count, the deterministic monotone
//     tie-break that guarantees forward progress without a graph merge.
//   - base < barrier (the entry was poisoned after this run acquired):
//     rejected unconditionally — the run's lineage may include the
//     quarantined chains, and a poisoned chain must never re-enter
//     circulation.
//
// Poisoning is how quarantine events propagate between tenants: a run that
// quarantined any chain (shadow-verification divergence, structural replay
// failure) poisons the epoch it imported, which atomically drops the
// published graph and raises the barrier past every in-flight run that
// could have imported it. Later tenants re-record and re-publish clean
// chains.
//
// A run takes the lock once to Acquire and once to Publish or Poison, so
// one mutex over one map serves every tenant. All methods are safe for
// concurrent use; a nil *SharedCache is inert.
type SharedCache struct {
	mu      sync.Mutex
	entries map[uint64]*sharedEntry // fastsim:guarded-by(mu)

	acquires  uint64 // fastsim:guarded-by(mu)
	warm      uint64 // fastsim:guarded-by(mu)
	publishes uint64 // fastsim:guarded-by(mu)
	rejects   uint64 // fastsim:guarded-by(mu)
	poisons   uint64 // fastsim:guarded-by(mu)
}

// sharedEntry is one fingerprint's published state.
type sharedEntry struct {
	epoch   uint64 // bumps on every publish and poison
	barrier uint64 // publishes with base < barrier are rejected (poison fence)
	graph   *Graph // immutable once stored; nil before first publish / after poison
}

// NewShared builds an empty SharedCache.
func NewShared() *SharedCache {
	return &SharedCache{entries: make(map[uint64]*sharedEntry)}
}

// Acquire returns the published graph for fp (nil if none) and the entry's
// current epoch, which the caller must hand back to Publish or Poison as
// its base. The returned graph is immutable — callers import it, never
// modify it. Nil-safe.
func (sc *SharedCache) Acquire(fp uint64) (*Graph, uint64) {
	if sc == nil {
		return nil, 0
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.acquires++
	e := sc.entries[fp]
	if e == nil || e.graph == nil {
		if e == nil {
			return nil, 0
		}
		return nil, e.epoch
	}
	sc.warm++
	return e.graph, e.epoch
}

// Publish offers g — a full ExportGraph image, i.e. the acquired base plus
// the run's recorded delta — as fp's new published state. base is the epoch
// the publishing run acquired (0 for a cold run that found no entry). It
// returns the new epoch and whether the publish was accepted; a rejected
// publish (stale lineage, no growth, poison fence) leaves the entry
// untouched. g must not be modified after a successful Publish. Nil-safe.
func (sc *SharedCache) Publish(fp uint64, g *Graph, base uint64) (uint64, bool) {
	if sc == nil || g == nil {
		return 0, false
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	e := sc.entries[fp]
	if e == nil {
		e = &sharedEntry{}
		sc.entries[fp] = e
	}
	switch {
	case base < e.barrier:
		// The entry was poisoned after this run acquired: its chains may
		// descend from the quarantined graph. Never re-admit them.
		sc.rejects++
		return e.epoch, false
	case base < e.epoch && e.graph != nil && len(g.Actions) <= len(e.graph.Actions):
		// A neighbour published a graph at least as complete while this run
		// simulated; keep the richer one.
		sc.rejects++
		return e.epoch, false
	}
	e.epoch++
	e.graph = g
	sc.publishes++
	return e.epoch, true
}

// Poison drops fp's published graph when the poisoning run's base epoch is
// still reachable: every publish whose lineage includes the poisoned epoch
// (base < the new barrier) will be rejected from now on. It returns whether
// a published graph was actually dropped. Poisoning an entry that has
// already moved past base is a no-op — the suspect graph is already out of
// circulation. Nil-safe.
func (sc *SharedCache) Poison(fp uint64, base uint64) bool {
	if sc == nil {
		return false
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	e := sc.entries[fp]
	if e == nil {
		// The poisoning run imported nothing; there is nothing to drop, but
		// fence cold republication of its own chains anyway by creating the
		// entry with a raised barrier.
		e = &sharedEntry{}
		sc.entries[fp] = e
	}
	if base < e.barrier {
		return false // already poisoned past this lineage
	}
	dropped := e.graph != nil
	e.graph = nil
	e.epoch++
	e.barrier = e.epoch
	sc.poisons++
	return dropped
}

// SharedStats summarizes a SharedCache's activity.
type SharedStats struct {
	Entries   int    `json:"entries"`   // fingerprints with any state (published or fenced)
	Published int    `json:"published"` // fingerprints currently holding a published graph
	Actions   int    `json:"actions"`   // total actions across published graphs
	Acquires  uint64 `json:"acquires"`  // Acquire calls
	Warm      uint64 `json:"warm"`      // acquires that returned a graph
	Publishes uint64 `json:"publishes"` // accepted publishes
	Rejects   uint64 `json:"rejects"`   // stale or fenced publishes dropped
	Poisons   uint64 `json:"poisons"`   // quarantine propagations
}

// Stats returns a point-in-time summary. Nil-safe.
func (sc *SharedCache) Stats() SharedStats {
	if sc == nil {
		return SharedStats{}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := SharedStats{
		Entries:   len(sc.entries),
		Acquires:  sc.acquires,
		Warm:      sc.warm,
		Publishes: sc.publishes,
		Rejects:   sc.rejects,
		Poisons:   sc.poisons,
	}
	for _, e := range sc.entries { //fastsim:order-independent: integer sums over entries are commutative
		if e.graph != nil {
			st.Published++
			st.Actions += len(e.graph.Actions)
		}
	}
	return st
}
