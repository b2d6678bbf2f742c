package memo_test

import (
	"encoding/binary"
	"path/filepath"
	"reflect"
	"testing"

	"fastsim/internal/core"
	"fastsim/internal/memo"
	"fastsim/internal/snapshot"
	"fastsim/internal/workloads"
)

// FuzzImportGraph maps arbitrary bytes to a small Graph and imports it.
// Import must return nil or an error, never panic or hang, and must charge
// exactly the graph's Footprint. A graph it accepts must round-trip: its
// export imports again and exports to the same image. Seeds are the
// package tests' fixture graph and the graph a short run of 099.go saves.
func FuzzImportGraph(f *testing.F) {
	for _, g := range []*memo.Graph{memo.GraphFixture(), realRunGraph(f)} {
		data := graphBytes(g)
		if err := memo.NewCache(memo.DefaultOptions()).ImportGraph(graphFromBytes(data)); err != nil {
			f.Fatalf("seed rejected: %v", err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		c := memo.NewCache(memo.DefaultOptions())
		if c.ImportGraph(g) != nil {
			return
		}
		if c.Bytes() != g.Footprint() {
			t.Fatalf("import charged %d bytes, Footprint is %d", c.Bytes(), g.Footprint())
		}
		g1 := c.ExportGraph()
		c2 := memo.NewCache(memo.DefaultOptions())
		if err := c2.ImportGraph(g1); err != nil {
			t.Fatalf("exported graph rejected: %v", err)
		}
		if g2 := c2.ExportGraph(); !reflect.DeepEqual(g1, g2) {
			t.Fatalf("round trip changed the graph:\n1st %+v\n2nd %+v", g1, g2)
		}
	})
}

// realRunGraph returns the p-action graph a short run of 099.go saves.
func realRunGraph(f *testing.F) *memo.Graph {
	w, _ := workloads.Get("099.go")
	cfg := core.DefaultConfig()
	cfg.SnapshotSave = filepath.Join(f.TempDir(), "seed.fsnap")
	if _, err := core.Run(w.MustBuild(0.00001), cfg); err != nil {
		f.Fatal(err)
	}
	img, err := snapshot.Inspect(cfg.SnapshotSave)
	if err != nil {
		f.Fatal(err)
	}
	return &img.Graph
}

// graphBytes encodes a Graph's structure as a varint stream: the key count,
// then each key's length, bytes and chain head; the action count, then each
// action's kind, Next, NextCfg, label count and label/target pairs.
// graphFromBytes inverts it.
func graphBytes(g *memo.Graph) []byte {
	b := binary.AppendUvarint(nil, uint64(len(g.Keys)))
	for i, k := range g.Keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		b = binary.AppendVarint(b, g.First[i])
	}
	b = binary.AppendUvarint(b, uint64(len(g.Actions)))
	for _, ga := range g.Actions {
		b = binary.AppendUvarint(b, uint64(ga.Kind))
		b = binary.AppendVarint(b, ga.Next)
		b = binary.AppendVarint(b, ga.NextCfg)
		b = binary.AppendUvarint(b, uint64(len(ga.Labels)))
		for j, l := range ga.Labels {
			b = binary.AppendVarint(b, l)
			b = binary.AppendVarint(b, ga.Targets[j])
		}
	}
	return b
}

// graphFromBytes decodes graphBytes' stream from any input. Reads past the
// end yield zeros, and every count is capped by the bytes left, so no
// input builds more than it spends.
func graphFromBytes(data []byte) *memo.Graph {
	r := graphReader(data)
	g := &memo.Graph{}
	for n := r.count(); n > 0; n-- {
		k := r.count()
		g.Keys = append(g.Keys, string(r[:k]))
		r = r[k:]
		g.First = append(g.First, r.varint())
	}
	for n := r.count(); n > 0; n-- {
		ga := memo.GraphAction{Kind: uint8(r.uvarint()), Next: r.varint(), NextCfg: r.varint()}
		for m := r.count(); m > 0; m-- {
			ga.Labels = append(ga.Labels, r.varint())
			ga.Targets = append(ga.Targets, r.varint())
		}
		g.Actions = append(g.Actions, ga)
	}
	return g
}

type graphReader []byte

func (r *graphReader) uvarint() uint64 {
	v, n := binary.Uvarint(*r)
	if n <= 0 {
		*r = nil
		return 0
	}
	*r = (*r)[n:]
	return v
}

func (r *graphReader) varint() int64 {
	v, n := binary.Varint(*r)
	if n <= 0 {
		*r = nil
		return 0
	}
	*r = (*r)[n:]
	return v
}

func (r *graphReader) count() int {
	return int(min(r.uvarint(), uint64(len(*r))))
}
