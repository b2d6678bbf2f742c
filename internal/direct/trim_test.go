package direct

import (
	"testing"

	"fastsim/internal/bpred"
)

func TestTrimReleasesConsumedPrefixes(t *testing.T) {
	p := build(t, `
.data
buf:	.space 64
.text
main:
	li   t0, 100
	la   s0, buf
loop:
	sw   t0, 0(s0)
	lw   t1, 0(s0)
	addi t0, t0, -1
	bnez t0, loop
	halt
`)
	eng := New(p, bpred.New(512))
	drive(t, eng, 9)
	loads, stores, recs := eng.NumLoads(), eng.NumStores(), eng.NumRecs()
	if loads != 100 || stores != 100 {
		t.Fatalf("loads=%d stores=%d", loads, stores)
	}
	// A consumed prefix under half a queue is left in place: copying it
	// down at every retirement would cost O(queue length) each time.
	eng.Trim(eng.recBase+1, 1, 1)
	if len(eng.lq) != loads || len(eng.sq) != stores || eng.Load(1).Width != 4 {
		t.Errorf("short prefix copied down: lq %d, sq %d entries", len(eng.lq), len(eng.sq))
	}
	// Consume most of the queues, as retirement would.
	eng.Trim(recs-2, loads-3, stores-3)
	if len(eng.lq) != 3 || len(eng.sq) != 3 || len(eng.recs) != 2 {
		t.Errorf("consumed prefixes kept: lq %d, sq %d, recs %d entries", len(eng.lq), len(eng.sq), len(eng.recs))
	}
	// Absolute indices above the trim point must still work.
	if eng.Load(loads-1).Width != 4 || eng.Store(stores-1).Width != 4 {
		t.Error("post-trim accessors broken")
	}
	if eng.Rec(recs-1).Kind != KindHalt {
		t.Error("post-trim record accessor broken")
	}
	// Absolute counts are unchanged by trimming.
	if eng.NumLoads() != loads || eng.NumStores() != stores || eng.NumRecs() != recs {
		t.Error("trim changed absolute counts")
	}
}

func TestTrimStopsAtLiveCheckpoint(t *testing.T) {
	p := build(t, `
.data
x:	.word 5
.text
main:
	la   s0, x
	sw   s0, 4(s0)      # a store before the branch
	li   t0, 1
	bnez t0, target     # mispredicted on cold counters
	sw   t0, 8(s0)      # wrong path store
	halt
target:
	halt
`)
	eng := New(p, bpred.New(512))
	i1, err := eng.RunToNextControlPoint()
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Rec(i1).Mispredicted {
		t.Fatal("branch not mispredicted")
	}
	if _, err := eng.RunToNextControlPoint(); err != nil {
		t.Fatal(err)
	}
	// Try to trim past the checkpoint: the engine must clamp so rollback
	// still works.
	eng.Trim(eng.NumRecs(), eng.NumLoads(), eng.NumStores())
	if err := eng.Rollback(i1); err != nil {
		t.Fatalf("rollback after aggressive trim: %v", err)
	}
	drive(t, eng, 10)
}

func TestQueueMemoryBounded(t *testing.T) {
	// A long loop with constant trimming must keep the live queue slices
	// short even though millions of absolute entries flow through.
	p := build(t, `
.data
buf:	.space 64
.text
main:
	li   t0, 20000
	la   s0, buf
loop:
	sw   t0, 0(s0)
	lw   t1, 0(s0)
	addi t0, t0, -1
	bnez t0, loop
	halt
`)
	eng := New(p, bpred.New(512))
	for !eng.Halted {
		idx, err := eng.RunToNextControlPoint()
		if err != nil {
			t.Fatal(err)
		}
		rec := eng.Rec(idx)
		if rec.Mispredicted {
			if err := eng.Rollback(idx); err != nil {
				t.Fatal(err)
			}
		}
		// The driver trims everything it has "retired" (here: all of it).
		eng.Trim(eng.NumRecs(), eng.NumLoads(), eng.NumStores())
		if live := len(eng.lq) + len(eng.sq) + len(eng.recs); live > 64 {
			t.Fatalf("live queue entries grew to %d despite trimming", live)
		}
	}
	if eng.NumLoads() != 20000 || eng.NumStores() != 20000 {
		t.Errorf("absolute counts wrong: %d/%d", eng.NumLoads(), eng.NumStores())
	}
}
