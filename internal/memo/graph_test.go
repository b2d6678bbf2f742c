package memo

import (
	"reflect"
	"testing"
)

// buildGraphCache populates a cache with two linked configurations, a
// branchy action chain (including enough labelled successors to be charged
// edgeExtraBytes), and a shell config — the structural cases ExportGraph and
// ImportGraph must preserve.
func buildGraphCache() *Cache {
	c := NewCache(DefaultOptions())
	cfgA, _ := c.getOrCreate([]byte{0, 0, 0, 0, 0, 0})
	cfgB, _ := c.getOrCreate([]byte{1, 0, 0, 0, 0, 0})
	c.getOrCreate([]byte{2, 0, 0, 0, 0, 0}) // shell: no chain

	adv := c.newAction(actAdvance, 0)
	adv.cycles, adv.insts, adv.loads, adv.stores, adv.recs = 7, 4, 1, 1, 2
	cfgA.first = adv

	out := c.newAction(actOutcome, 0)
	adv.next = out
	// Four labelled successors, two of them charged. Edge charges go
	// through addBytes exactly like the recorder's.
	for i, k := range []actionKind{actIssueStore, actCancelLoad, actRollback, actHalt} {
		tgt := c.newAction(k, int32(i))
		c.addBytes(out.setEdge(labelKindBranch|int64(i), tgt))
		if k != actHalt {
			lnk := c.newAction(actLink, 0)
			lnk.nextCfg = cfgB
			tgt.next = lnk
		}
	}

	advB := c.newAction(actAdvance, 0)
	advB.cycles = 2
	cfgB.first = advB
	poll := c.newAction(actPollLoad, 1)
	advB.next = poll
	c.addBytes(poll.setEdge(readyEdgeLabel, c.newAction(actHalt, 0)))
	c.addBytes(poll.setEdge(5, c.newAction(actHalt, 0)))
	return c
}

func TestGraphExportImportRoundTrip(t *testing.T) {
	c := buildGraphCache()
	g := c.ExportGraph()
	if len(g.Keys) != 3 || len(g.Actions) == 0 {
		t.Fatalf("export: %d keys, %d actions", len(g.Keys), len(g.Actions))
	}

	c2 := NewCache(DefaultOptions())
	if err := c2.ImportGraph(g); err != nil {
		t.Fatalf("import: %v", err)
	}
	g2 := c2.ExportGraph()
	if !reflect.DeepEqual(g, g2) {
		t.Fatalf("round trip changed the graph:\n1st %+v\n2nd %+v", g, g2)
	}
	if c2.Bytes() != c.Bytes() {
		t.Errorf("byte accounting differs after import: %d vs %d", c2.Bytes(), c.Bytes())
	}
	if f := g.Footprint(); f != c2.Bytes() {
		t.Errorf("Footprint() = %d, import charged %d", f, c2.Bytes())
	}
	// Imported chains must be walkable exactly like the originals.
	cf := c2.lookup([]byte{0, 0, 0, 0, 0, 0})
	if cf == nil || cf.first == nil || cf.first.kind != actAdvance || cf.first.cycles != 7 {
		t.Fatal("imported chain head lost")
	}
	n := 0
	for k := cf.first.next.next; k != nil; k = k.sib {
		n++
	}
	if n != 4 {
		t.Errorf("imported edge count = %d, want 4", n)
	}
}

func TestGraphExportDeterministicAcrossHistory(t *testing.T) {
	// The same logical graph built in a different insertion order must
	// export identical images.
	c1 := buildGraphCache()
	c2 := NewCache(DefaultOptions())
	if err := c2.ImportGraph(c1.ExportGraph()); err != nil {
		t.Fatal(err)
	}
	// c2's arena layout and insertion order differ from c1's; the exports
	// must not.
	if !reflect.DeepEqual(c1.ExportGraph(), c2.ExportGraph()) {
		t.Fatal("export depends on construction history")
	}
}

func TestGraphImportRejectsCorruptImages(t *testing.T) {
	base := buildGraphCache().ExportGraph()
	fresh := func() *Cache { return NewCache(DefaultOptions()) }

	mutations := map[string]func(g *Graph){
		"chain head out of range": func(g *Graph) { g.First[0] = int64(len(g.Actions)) },
		"bad action kind":         func(g *Graph) { g.Actions[0].Kind = uint8(actLink) + 1 },
		"next out of range":       func(g *Graph) { g.Actions[0].Next = -7 },
		"nextCfg out of range":    func(g *Graph) { g.Actions[0].NextCfg = int64(len(g.Keys)) },
		"ragged labels":           func(g *Graph) { g.Actions[1].Labels = g.Actions[1].Labels[:1] },
		"unsorted labels": func(g *Graph) {
			l := g.Actions[1].Labels
			l[0], l[1] = l[1], l[0]
		},
		"target out of range": func(g *Graph) { g.Actions[1].Targets[0] = int64(len(g.Actions)) },
		"absent target":       func(g *Graph) { g.Actions[1].Targets[0] = -1 },
		"duplicate key":       func(g *Graph) { g.Keys[1] = g.Keys[0] },
		"ragged first":        func(g *Graph) { g.First = g.First[:1] },
		// A tree is what replay's act = act.next walk relies on to end.
		"self-referencing next": func(g *Graph) {
			i := findKind(g, actIssueStore)
			g.Actions[i].Next = int64(i)
		},
		"target under two labels": func(g *Graph) {
			i := findKind(g, actOutcome)
			g.Actions[i].Targets[1] = g.Actions[i].Targets[0]
		},
		"labelled kind with next": func(g *Graph) {
			i := findKind(g, actIssueStore)
			g.Actions[i].Kind = uint8(actOutcome)
		},
		"unlabelled kind with labels": func(g *Graph) {
			i := findKind(g, actOutcome)
			g.Actions[i].Kind = uint8(actRollback)
		},
		"unreachable action": func(g *Graph) {
			g.Actions = append(g.Actions, GraphAction{Kind: uint8(actHalt), Next: -1, NextCfg: -1})
		},
	}
	for name, mutate := range mutations {
		c := fresh()
		g := deepCopyGraph(base)
		mutate(g)
		if err := c.ImportGraph(g); err == nil {
			t.Errorf("%s: import accepted a corrupt graph", name)
		}
	}

	// And a healthy copy still imports, proving the harness isn't vacuous.
	if err := fresh().ImportGraph(deepCopyGraph(base)); err != nil {
		t.Fatalf("healthy copy rejected: %v", err)
	}

	c := fresh()
	if err := c.ImportGraph(deepCopyGraph(base)); err != nil {
		t.Fatal(err)
	}
	if err := c.ImportGraph(deepCopyGraph(base)); err == nil {
		t.Error("import into a non-empty cache accepted")
	}
}

// findKind returns the index of g's first action of kind k.
func findKind(g *Graph, k actionKind) int {
	for i := range g.Actions {
		if actionKind(g.Actions[i].Kind) == k {
			return i
		}
	}
	panic("no " + k.String() + " action")
}

func deepCopyGraph(g *Graph) *Graph {
	cp := &Graph{
		Keys:    append([]string(nil), g.Keys...),
		First:   append([]int64(nil), g.First...),
		Actions: append([]GraphAction(nil), g.Actions...),
		Stats:   g.Stats,
	}
	for i := range cp.Actions {
		cp.Actions[i].Labels = append([]int64(nil), g.Actions[i].Labels...)
		cp.Actions[i].Targets = append([]int64(nil), g.Actions[i].Targets...)
	}
	return cp
}
