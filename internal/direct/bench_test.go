package direct

import (
	"math"
	"testing"

	"fastsim/internal/bpred"
	"fastsim/internal/emulator"
	"fastsim/internal/isa"
	"fastsim/internal/workloads"
)

// BenchmarkDirect measures direct execution alone, per executed
// instruction: the engine runs each program to halt at scale 1, every
// mispredict is rolled back as soon as it is recorded and the queues are
// trimmed as a retiring driver would. The workloads are the four
// replay-warm programs, 130.li, and 104.hydro2d and 146.wave5, whose hot
// loops run the FP min/max/abs and cvtfi handlers. The final registers and checksum must equal
// the plain interpreter's.
//
//	go test -run '^$' -bench BenchmarkDirect -benchtime 3x ./internal/direct
func BenchmarkDirect(b *testing.B) {
	for _, name := range []string{"099.go", "107.mgrid", "126.gcc", "132.ijpeg", "130.li", "104.hydro2d", "146.wave5"} {
		b.Run(name, func(b *testing.B) {
			w, ok := workloads.Get(name)
			if !ok {
				b.Fatalf("unknown workload %s", name)
			}
			p := w.MustBuild(1)
			ref := emulator.New(p)
			if err := ref.Run(0); err != nil {
				b.Fatal(err)
			}
			var insts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := New(p, bpred.New(0))
				for !eng.Halted {
					idx, err := eng.RunToNextControlPoint()
					if err != nil {
						b.Fatal(err)
					}
					if r := eng.Rec(idx); r.Kind == KindBranch && r.Mispredicted {
						if err := eng.Rollback(idx); err != nil {
							b.Fatal(err)
						}
					}
					eng.Trim(eng.NumRecs(), eng.NumLoads(), eng.NumStores())
				}
				insts += eng.Stats().Insts
				if eng.St.R != ref.R || !sameFP(&eng.St.F, &ref.F) || eng.St.Checksum != ref.Checksum {
					b.Fatalf("final state differs from the interpreter's (checksum %#x, want %#x)",
						eng.St.Checksum, ref.Checksum)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}

// sameFP compares FP register files bit for bit, so NaNs compare equal.
func sameFP(a, b *[isa.NumFPRegs]float64) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}
