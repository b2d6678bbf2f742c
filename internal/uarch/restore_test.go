package uarch

import (
	"bytes"
	"reflect"
	"testing"

	"fastsim/internal/direct"
)

// restoreHeads rebinds restored entries away from zero, so a handle left
// over from before a Restore cannot pass for a rebound one.
var restoreHeads = Heads{Rec: 7, LQ: 3, SQ: 2}

// assertRestoreLikeFresh restores key into pl and into a pipeline fresh
// from New over the same machine, program and Env: every field must come
// out equal (reflect.DeepEqual ignores the iQ's capacity).
func assertRestoreLikeFresh(t *testing.T, pl *Pipeline, key string) {
	t.Helper()
	fresh, err := New(pl.P, pl.Prog, pl.Env, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(key, 1234, restoreHeads); err != nil {
		t.Fatalf("fresh restore: %v", err)
	}
	if err := pl.Restore(key, 1234, restoreHeads); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(pl, fresh) {
		t.Errorf("restored pipeline differs from a fresh one:\n%+v\nvs\n%+v", *pl, *fresh)
	}
}

// TestRestoreResetsEveryField restores a mid-run key into pipelines that
// have run on — one past its halt, one with fetch stalled off the text —
// and compares each with New followed by Restore. A Pipeline field that
// Restore forgot to reset shows up as a difference.
func TestRestoreResetsEveryField(t *testing.T) {
	t.Run("done", func(t *testing.T) {
		p := buildProg(t, `
main:
	lw  t0, 0(sp)
	beq t0, t1, main
	halt
`)
		env := newFakeEnv(t)
		env.loadDelay = 40
		env.outcomes = []Outcome{
			{Kind: direct.KindBranch, PC: p.Entry + 4, Taken: false},
			haltOutcome(p.Entry + 8),
		}
		pl, err := New(DefaultParams(), p, env, p.Entry)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			pl.Step()
		}
		key := string(pl.EncodeConfig(nil))
		runToDone(t, pl, 300)
		assertRestoreLikeFresh(t, pl, key)
	})
	t.Run("fetch-stall", func(t *testing.T) {
		// No halt: fetch past the branch runs off the text and parks.
		p := buildProg(t, `
main:
	lw  t0, 0(sp)
	add t1, t0, t0
	beq t1, t0, main
`)
		env := newFakeEnv(t)
		env.loadDelay = 40
		env.outcomes = []Outcome{
			{Kind: direct.KindBranch, PC: p.Entry + 8, Taken: false},
			{Kind: direct.KindStall},
		}
		pl, err := New(DefaultParams(), p, env, p.Entry)
		if err != nil {
			t.Fatal(err)
		}
		pl.Step()
		key := string(pl.EncodeConfig(nil))
		for i := 0; i < 10 && !pl.fetchStall; i++ {
			pl.Step()
		}
		if !pl.fetchStall {
			t.Fatal("fetch never stalled")
		}
		assertRestoreLikeFresh(t, pl, key)
	})
}

// TestRestoreAllocatesNothing: restoring a valid key into a pipeline from
// New reuses its iQ, so a replay stop costs no allocation.
func TestRestoreAllocatesNothing(t *testing.T) {
	pl, _ := newLoopPipeline(t)
	for i := 0; i < 1000; i++ {
		pl.Step()
	}
	key := string(pl.EncodeConfig(nil))
	if len(pl.Entries()) < 8 {
		t.Fatalf("only %d entries in the key", len(pl.Entries()))
	}
	re, _ := newLoopPipeline(t)
	restore := func() {
		if err := re.Restore(key, 1000, restoreHeads); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, restore); avg != 0 {
		t.Errorf("Restore allocates %.2f times, want 0", avg)
	}
}

// FuzzRestore feeds Restore arbitrary bytes over loopSrc's program. It must
// never panic, and a key it accepts must re-encode to bytes that restore
// and re-encode to themselves (decode∘encode is a fixpoint, which replay
// depends on). Seeds are configurations the loop really passes through,
// plus every truncation and byte flip of one of them.
func FuzzRestore(f *testing.F) {
	pl, _ := newLoopPipeline(f)
	var key []byte
	for i := 1; i <= 200; i++ {
		pl.Step()
		if i%13 == 0 {
			key = pl.EncodeConfig(nil)
			f.Add(key)
		}
	}
	for cut := range key {
		f.Add(key[:cut])
	}
	for i := range key {
		mut := bytes.Clone(key)
		mut[i] ^= 0xFF
		f.Add(mut)
	}
	re, _ := newLoopPipeline(f) // reused, as the memo engine reuses its one
	f.Fuzz(func(t *testing.T, data []byte) {
		if re.Restore(string(data), 0, restoreHeads) != nil {
			return
		}
		enc := re.EncodeConfig(nil)
		if err := re.Restore(string(enc), 0, restoreHeads); err != nil {
			t.Fatalf("re-encoded key rejected: %v\n%x", err, enc)
		}
		if back := re.EncodeConfig(nil); !bytes.Equal(back, enc) {
			t.Fatalf("re-encoding is not a fixpoint:\n%x\nvs\n%x", enc, back)
		}
	})
}
