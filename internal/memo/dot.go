package memo

import (
	"fmt"
	"io"
	"sort"
)

// ExportDot writes the p-action graph in Graphviz DOT format — the picture
// of Figure 6: configuration nodes (boxes) linked to their action chains,
// with outcome-labelled edges where behaviour can branch. maxConfigs bounds
// the output for large caches (0 means 64).
func (c *Cache) ExportDot(w io.Writer, maxConfigs int) error {
	if maxConfigs <= 0 {
		maxConfigs = 64
	}
	if _, err := fmt.Fprintln(w, "digraph paction {"); err != nil {
		return err
	}
	fmt.Fprintln(w, `  rankdir=LR;`)
	fmt.Fprintln(w, `  node [fontsize=9];`)

	// Deterministic order. Table iteration is already byte-stable, but the
	// output contract is sorted-by-key, independent of insertion history.
	cfgs := make([]*config, 0, c.tab.n)
	c.tab.each(func(cf *config) { cfgs = append(cfgs, cf) })
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].key < cfgs[j].key })
	if len(cfgs) > maxConfigs {
		cfgs = cfgs[:maxConfigs]
	}
	kept := make(map[string]bool, len(cfgs))
	for _, cf := range cfgs {
		kept[cf.key] = true
	}

	// Node names are sequential IDs assigned in traversal order — the
	// traversal itself is deterministic (sorted config keys, chain order,
	// label-sorted edges), so the DOT output is byte-stable across runs,
	// unlike pointer-formatted names.
	cfgIDs := make(map[*config]int)
	actIDs := make(map[*action]int)
	cfgID := func(cf *config) string {
		id, ok := cfgIDs[cf]
		if !ok {
			id = len(cfgIDs)
			cfgIDs[cf] = id
		}
		return fmt.Sprintf("cfg_%d", id)
	}
	actID := func(a *action) string {
		id, ok := actIDs[a]
		if !ok {
			id = len(actIDs)
			actIDs[a] = id
		}
		return fmt.Sprintf("act_%d", id)
	}

	var emitChain func(a *action)
	emitChain = func(a *action) {
		label := a.kind.String()
		switch a.kind {
		case actAdvance:
			label = fmt.Sprintf("advance %d cyc\\nretire %d", a.cycles, a.insts)
		case actIssueLoad, actPollLoad, actCancelLoad:
			label = fmt.Sprintf("%s lQ+%d", a.kind, a.rel)
		case actIssueStore:
			label = fmt.Sprintf("%s sQ+%d", a.kind, a.rel)
		case actRollback:
			label = fmt.Sprintf("rollback rec+%d", a.rel)
		}
		fmt.Fprintf(w, "  %s [label=\"%s\" shape=ellipse];\n", actID(a), label)
		for k := a.next; k != nil; k = k.sib {
			if a.kind.labelled() {
				fmt.Fprintf(w, "  %s -> %s [label=\"%s\"];\n", actID(a), actID(k), edgeLabel(k.label))
			} else {
				fmt.Fprintf(w, "  %s -> %s;\n", actID(a), actID(k))
			}
			emitChain(k)
		}
		if a.nextCfg != nil {
			if kept[a.nextCfg.key] {
				fmt.Fprintf(w, "  %s -> %s [style=dashed];\n", actID(a), cfgID(a.nextCfg))
			} else {
				fmt.Fprintf(w, "  %s -> elided_%s [style=dotted];\n", actID(a), cfgID(a.nextCfg))
				fmt.Fprintf(w, "  elided_%s [label=\"...\" shape=plaintext];\n", cfgID(a.nextCfg))
			}
		}
	}

	for _, cf := range cfgs {
		fmt.Fprintf(w, "  %s [label=\"config %d insts\\n%d B\" shape=box style=filled fillcolor=lightgrey];\n",
			cfgID(cf), configInsts(cf.key), len(cf.key))
		if cf.first != nil {
			fmt.Fprintf(w, "  %s -> %s;\n", cfgID(cf), actID(cf.first))
			emitChain(cf.first)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// configInsts reads the iQ entry count out of an encoded configuration key.
func configInsts(key string) int {
	if len(key) >= 6 {
		return int(key[5])
	}
	return 0
}

// edgeLabel renders an outcome-edge label readably.
func edgeLabel(l int64) string {
	switch l >> labelKindShift {
	case labelKindBranch >> labelKindShift:
		names := [4]string{"NT/pred", "T/pred", "NT/mis", "T/mis"}
		return names[l&3]
	case labelKindIJump >> labelKindShift:
		return fmt.Sprintf("jmp %#x", uint32(l))
	case labelKindHalt >> labelKindShift:
		return "halt"
	case labelKindStall >> labelKindShift:
		return "stall"
	}
	if l == readyEdgeLabel {
		return "ready"
	}
	return fmt.Sprintf("%d cyc", l)
}
