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
// (an explicit stack, like collect) so multi-million-action chains cannot
// overflow the goroutine stack, and deterministic: configurations sort by
// key, and each chain is walked depth first, successors in ascending label
// order.
func (c *Cache) ExportGraph() *Graph {
	cfgs := make([]*config, 0, c.tab.n)
	c.tab.each(func(cf *config) { cfgs = append(cfgs, cf) })
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].key < cfgs[j].key })
	cfgID := make(map[*config]int64, len(cfgs))
	for i, cf := range cfgs {
		cfgID[cf] = int64(i)
	}

	// Pass 1: assign action ids in traversal order. The p-action graph is
	// a tree (see collect), so every node is pushed exactly once. Popping a
	// node pushes its next sibling, then its first successor, so a subtree
	// is numbered before the siblings that follow it. A chain head has no
	// siblings.
	var order []*action
	actID := make(map[*action]int64)
	stack := make([]*action, 0, 64)
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
			if a.sib != nil {
				stack = append(stack, a.sib)
			}
			if a.next != nil {
				stack = append(stack, a.next)
			}
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
		if a.nextCfg != nil {
			ga.NextCfg = cfgID[a.nextCfg]
		}
		if !a.kind.labelled() {
			if a.next != nil {
				ga.Next = actID[a.next]
			}
		} else {
			for k := a.next; k != nil; k = k.sib {
				ga.Labels = append(ga.Labels, k.label)
				ga.Targets = append(ga.Targets, actID[k])
			}
		}
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
// checksums. The graph must be a tree: every action is referenced exactly
// once — as a chain head, a Next or an edge target — and reachable from a
// chain head, and its kind agrees with its successor shape (Labels for the
// labelled kinds, Next for the rest). Any inconsistency returns an error,
// never a panic; chain heads are wired last, so a rejected graph leaves
// only shells behind.
func (c *Cache) ImportGraph(g *Graph) error {
	if c.tab.n != 0 || len(c.arena.slabs) != 0 {
		return fmt.Errorf("memo: import into a non-empty cache")
	}
	if len(g.Keys) != len(g.First) {
		return fmt.Errorf("memo: import: %d keys but %d chain heads", len(g.Keys), len(g.First))
	}
	// Allocate every node first so references can be wired in one forward
	// pass regardless of graph shape.
	acts := make([]*action, len(g.Actions))
	for i := range acts {
		acts[i] = c.arena.alloc()
	}
	referenced := make([]bool, len(acts))
	// ref resolves an action reference (-1 for none), claiming the action
	// so that a second reference to it is rejected.
	ref := func(id int64) (*action, error) {
		if id < -1 || id >= int64(len(acts)) {
			return nil, fmt.Errorf("memo: import: action index %d out of range [-1,%d)", id, len(acts))
		}
		if id < 0 {
			return nil, nil
		}
		if referenced[id] {
			return nil, fmt.Errorf("memo: import: action %d referenced more than once", id)
		}
		referenced[id] = true
		return acts[id], nil
	}

	// Configurations: intern the decoded keys directly.
	cfgs := make([]*config, len(g.Keys))
	for i, key := range g.Keys {
		h := hashKey(key)
		if find(c.tab, key, h) != nil {
			return fmt.Errorf("memo: import: duplicate configuration key (%d bytes)", len(key))
		}
		if _, err := ref(g.First[i]); err != nil {
			return err
		}
		cf := &config{key: key, hash: h, gen: c.gen, old: true}
		cfgs[i] = cf
		c.tab.insert(cf)
		c.bytes += len(key) + configOverhead
	}

	for i := range g.Actions {
		ga := &g.Actions[i]
		if ga.Kind > uint8(actLink) {
			return fmt.Errorf("memo: import: action %d has bad kind %d", i, ga.Kind)
		}
		kind := actionKind(ga.Kind)
		if kind.labelled() && ga.Next >= 0 || !kind.labelled() && len(ga.Labels) > 0 {
			return fmt.Errorf("memo: import: %v action %d has the wrong successor shape", kind, i)
		}
		if ga.NextCfg < -1 || ga.NextCfg >= int64(len(cfgs)) {
			return fmt.Errorf("memo: import: action %d links to config %d of %d", i, ga.NextCfg, len(cfgs))
		}
		if len(ga.Labels) != len(ga.Targets) {
			return fmt.Errorf("memo: import: action %d has %d labels but %d targets", i, len(ga.Labels), len(ga.Targets))
		}
		a := acts[i]
		a.kind = kind
		a.rel = ga.Rel
		a.cycles = ga.Cycles
		a.insts, a.loads, a.stores, a.recs = ga.Insts, ga.Loads, ga.Stores, ga.Recs
		a.gen, a.old = c.gen, true
		next, err := ref(ga.Next)
		if err != nil {
			return err
		}
		a.next = next
		if ga.NextCfg >= 0 {
			a.nextCfg = cfgs[ga.NextCfg]
		}
		tail := &a.next
		for k, l := range ga.Labels {
			if k > 0 && l <= ga.Labels[k-1] {
				return fmt.Errorf("memo: import: action %d labels not strictly ascending", i)
			}
			t, err := ref(ga.Targets[k])
			if err != nil {
				return err
			}
			if t == nil {
				return fmt.Errorf("memo: import: action %d has no target for label %d", i, l)
			}
			t.label = l
			*tail = t
			tail = &t.sib
		}
		c.bytes += actionBytes + a.extraEdgeBytes()
	}

	// With every action referenced at most once, a walk from the chain
	// heads visits each node once; it must visit them all.
	reached := 0
	stack := make([]*action, 0, 64)
	for _, first := range g.First {
		if first < 0 {
			continue
		}
		stack = append(stack, acts[first])
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			reached++
			for k := a.next; k != nil; k = k.sib {
				stack = append(stack, k)
			}
		}
	}
	if reached != len(acts) {
		return fmt.Errorf("memo: import: %d of %d actions unreachable from a chain head", len(acts)-reached, len(acts))
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
