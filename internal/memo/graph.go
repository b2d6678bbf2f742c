package memo

import (
	"fmt"
	"sort"

	"fastsim/internal/faultinject"
)

// Graph is a flat, pointer-free image of a Cache: the interned
// configuration keys, every action chain out of the chunked arenas, and the
// Stats counters. It is the intermediate form the snapshot layer
// serializes — ExportGraph produces it, ImportGraph rebuilds a live cache
// from it, and a round trip reproduces replay behaviour exactly.
//
// Configurations are ordered by key (byte order) and actions by a
// deterministic depth-first traversal, so two caches holding the same graph
// export identical images regardless of insertion or collection history.
type Graph struct {
	// Keys holds one interned configuration key per config, sorted.
	Keys []string
	// First holds, per config, the action index of the chain head, or -1
	// for a shell awaiting re-recording.
	First []int64
	// Actions holds every reachable action node in traversal order.
	Actions []GraphAction
	// Stats is the cache's counter state at export time; a warm-started
	// run continues accumulating on top of it.
	Stats Stats
}

// KindString names a flattened action's kind ("advance", "outcome", ...,
// "link"), or "invalid" for out-of-range values — offline inspectors render
// kind breakdowns without access to the unexported actionKind type.
func (ga *GraphAction) KindString() string {
	if ga.Kind > uint8(actLink) {
		return "invalid"
	}
	return actionKind(ga.Kind).String()
}

// GraphAction is one flattened action node. Next and NextCfg are -1 when
// absent; Labels is sorted ascending with Targets parallel to it.
type GraphAction struct {
	Kind   uint8
	Rel    int32
	Cycles uint32
	Insts  int32
	Loads  int32
	Stores int32
	Recs   int32

	Next    int64
	NextCfg int64

	Labels  []int64
	Targets []int64
}

// Footprint returns the bytes ImportGraph charges for g: what a warm start
// from g occupies before its first episode. It mirrors ImportGraph's
// incremental accounting, which also charges a partial import.
func (g *Graph) Footprint() int {
	n := len(g.Keys)*configOverhead + len(g.Actions)*actionBytes
	for _, k := range g.Keys {
		n += len(k)
	}
	for i := range g.Actions {
		if extra := len(g.Actions[i].Labels) - 2; extra > 0 {
			n += extra * edgeExtraBytes
		}
	}
	return n
}

// ExportGraph flattens the cache into a Graph. The traversal is iterative
// (an explicit stack, like collect and dump) so multi-million-action chains
// cannot overflow the goroutine stack, and deterministic: configurations
// sort by key, and each chain walks node → unlabelled successor → labelled
// edges in ascending label order.
func (c *Cache) ExportGraph() *Graph {
	cfgs := make([]*config, 0, c.tab.n)
	c.tab.each(func(cf *config) { cfgs = append(cfgs, cf) })
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].key < cfgs[j].key })
	cfgID := make(map[*config]int64, len(cfgs))
	for i, cf := range cfgs {
		cfgID[cf] = int64(i)
	}

	// Pass 1: assign action ids in traversal order. The p-action graph is
	// a tree (see collect), so every node is pushed exactly once.
	var order []*action
	actID := make(map[*action]int64)
	stack := make([]*action, 0, 64)
	var kidScratch []*action
	pushChildren := func(a *action) {
		// Children in reverse so the pop order is next first, then edges
		// ascending by label. eachEdge sorts inline and overflow edges
		// together, so the order is independent of which labels happened
		// to land in the inline slots.
		kidScratch = kidScratch[:0]
		a.eachEdge(func(_ int64, to *action) { kidScratch = append(kidScratch, to) })
		for i := len(kidScratch) - 1; i >= 0; i-- {
			stack = append(stack, kidScratch[i])
		}
		if a.next != nil {
			stack = append(stack, a.next)
		}
	}
	for _, cf := range cfgs {
		if cf.first == nil {
			continue
		}
		stack = append(stack, cf.first)
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			actID[a] = int64(len(order))
			order = append(order, a)
			pushChildren(a)
		}
	}

	// Pass 2: emit the flat records over the assigned ids.
	g := &Graph{
		Keys:    make([]string, len(cfgs)),
		First:   make([]int64, len(cfgs)),
		Actions: make([]GraphAction, len(order)),
		Stats:   c.Stats(),
	}
	for i, cf := range cfgs {
		g.Keys[i] = cf.key
		g.First[i] = -1
		if cf.first != nil {
			g.First[i] = actID[cf.first]
		}
	}
	for i, a := range order {
		ga := GraphAction{
			Kind: uint8(a.kind), Rel: a.rel,
			Cycles: a.cycles, Insts: a.insts, Loads: a.loads, Stores: a.stores, Recs: a.recs,
			Next: -1, NextCfg: -1,
		}
		if a.next != nil {
			ga.Next = actID[a.next]
		}
		if a.nextCfg != nil {
			ga.NextCfg = cfgID[a.nextCfg]
		}
		a.eachEdge(func(l int64, to *action) {
			ga.Labels = append(ga.Labels, l)
			ga.Targets = append(ga.Targets, actID[to])
		})
		g.Actions[i] = ga
	}
	return g
}

// InjectGraphFaults applies deterministic bit flips to a decoded Graph at
// the SiteChainFlip fault point — the chaos model of in-memory or on-disk
// chain corruption that slipped past checksums. Each armed occurrence flips
// one bit in one action: usually a payload bit (Cycles for advances, Rel
// otherwise, both of which only shadow verification can catch), and every
// eighth draw the Kind field, which the structural guards catch at import or
// replay time. Returns the number of actions corrupted. Callers apply this
// after decode and before ImportGraph.
func InjectGraphFaults(g *Graph, inj *faultinject.Injector) int {
	if inj == nil {
		return 0
	}
	flips := 0
	for i := range g.Actions {
		v, ok := inj.FireValue(faultinject.SiteChainFlip)
		if !ok {
			continue
		}
		flips++
		ga := &g.Actions[i]
		switch {
		case v%8 == 7:
			ga.Kind ^= uint8(1 << (v % 7))
		case actionKind(ga.Kind) == actAdvance:
			ga.Cycles ^= 1 << (v % 16)
		default:
			ga.Rel ^= 1 << (v % 8)
		}
	}
	return flips
}

// ImportGraph rebuilds the cache from a Graph: configurations are
// re-interned into the configTable (so warm-started runs probe without
// allocating, exactly like a hot cache) and actions are re-allocated from
// the chunked arenas and re-wired. The cache must be empty. Imported
// entries are marked as survivors of a prior generation (old), so every
// replacement policy treats them like promoted state: a flush or collection
// may discard them, never corrupt them.
//
// Structural validation is defense in depth behind the snapshot layer's
// checksums; any inconsistency returns an error and leaves behaviour
// undefined only for the rejected graph, never a panic.
func (c *Cache) ImportGraph(g *Graph) error {
	if c.tab.n != 0 || len(c.arena.slabs) != 0 {
		return fmt.Errorf("memo: import into a non-empty cache")
	}
	if len(g.Keys) != len(g.First) {
		return fmt.Errorf("memo: import: %d keys but %d chain heads", len(g.Keys), len(g.First))
	}
	nAct := int64(len(g.Actions))
	checkAct := func(id int64) error {
		if id < -1 || id >= nAct {
			return fmt.Errorf("memo: import: action index %d out of range [-1,%d)", id, nAct)
		}
		return nil
	}

	// Configurations: intern the decoded keys directly.
	cfgs := make([]*config, len(g.Keys))
	for i, key := range g.Keys {
		h := hashString(key)
		if c.tab.findString(key, h) != nil {
			return fmt.Errorf("memo: import: duplicate configuration key (%d bytes)", len(key))
		}
		if err := checkAct(g.First[i]); err != nil {
			return err
		}
		cf := &config{key: key, hash: h, gen: c.gen, old: true}
		cfgs[i] = cf
		c.tab.insert(cf)
		c.bytes += len(key) + configOverhead
	}

	// Actions: allocate every node first so references can be wired in one
	// forward pass regardless of graph shape.
	acts := make([]*action, len(g.Actions))
	for i := range g.Actions {
		acts[i] = c.arena.alloc()
	}
	for i := range g.Actions {
		ga := &g.Actions[i]
		if ga.Kind > uint8(actLink) {
			return fmt.Errorf("memo: import: action %d has bad kind %d", i, ga.Kind)
		}
		if err := checkAct(ga.Next); err != nil {
			return err
		}
		if ga.NextCfg < -1 || ga.NextCfg >= int64(len(cfgs)) {
			return fmt.Errorf("memo: import: action %d links to config %d of %d", i, ga.NextCfg, len(cfgs))
		}
		if len(ga.Labels) != len(ga.Targets) {
			return fmt.Errorf("memo: import: action %d has %d labels but %d targets", i, len(ga.Labels), len(ga.Targets))
		}
		a := acts[i]
		a.kind = actionKind(ga.Kind)
		a.rel = ga.Rel
		a.cycles = ga.Cycles
		a.insts, a.loads, a.stores, a.recs = ga.Insts, ga.Loads, ga.Stores, ga.Recs
		a.gen, a.old = c.gen, true
		if ga.Next >= 0 {
			a.next = acts[ga.Next]
		}
		if ga.NextCfg >= 0 {
			a.nextCfg = cfgs[ga.NextCfg]
		}
		for k, l := range ga.Labels {
			if k > 0 && l <= ga.Labels[k-1] {
				return fmt.Errorf("memo: import: action %d labels not strictly ascending", i)
			}
			if err := checkAct(ga.Targets[k]); err != nil {
				return err
			}
			c.bytes += a.setEdge(l, acts[ga.Targets[k]])
		}
		c.bytes += actionBytes
	}
	for i, first := range g.First {
		if first >= 0 {
			cfgs[i].first = acts[first]
		}
	}

	// Counters continue from the snapshot: a warm run's Stats are
	// cumulative across the runs that built the cache.
	c.live = len(acts)
	c.stats = g.Stats
	if c.bytes > c.stats.PeakBytes {
		c.stats.PeakBytes = c.bytes
	}
	return nil
}
