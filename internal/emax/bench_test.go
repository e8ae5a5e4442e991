package emax

import (
	"math/rand"
	"slices"
	"testing"
)

// flatInstance draws n RVs of z atoms each in the flat layout of a compiled
// instance: distances in [0, 100), masses normalized per RV.
func flatInstance(n, z int) (vals, probs []float64, rvIdx []int32) {
	rng := rand.New(rand.NewSource(int64(n*31 + z)))
	for i := 0; i < n; i++ {
		var sum float64
		start := len(probs)
		for j := 0; j < z; j++ {
			p := rng.Float64() + 0.05
			vals = append(vals, rng.Float64()*100)
			probs = append(probs, p)
			rvIdx = append(rvIdx, int32(i))
			sum += p
		}
		for f := start; f < len(probs); f++ {
			probs[f] /= sum
		}
	}
	return vals, probs, rvIdx
}

// sweepSizes are the event counts N = n·z of the kernel benchmarks: the
// atom counts of the 150- and 300-point, z = 4 instances the solver
// benchmarks use.
var sweepSizes = []struct{ n, z int }{{150, 4}, {300, 4}}

// BenchmarkExpectedMaxFlat times one E-cost on a warmed arena: the event
// build, the sort and the sweep.
func BenchmarkExpectedMaxFlat(b *testing.B) {
	for _, size := range sweepSizes {
		vals, probs, rvIdx := flatInstance(size.n, size.z)
		b.Run("N="+itoa(len(vals)), func(b *testing.B) {
			var a Arena
			a.ExpectedMaxFlat(vals, probs, rvIdx, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += a.ExpectedMaxFlat(vals, probs, rvIdx, size.n)
			}
		})
	}
}

// BenchmarkSweepSorted times the sweep alone over a presorted event stream,
// the per-candidate cost of the incremental swap evaluator after its merge.
func BenchmarkSweepSorted(b *testing.B) {
	for _, size := range sweepSizes {
		vals, probs, rvIdx := flatInstance(size.n, size.z)
		events := make([]Event, len(vals))
		for f, v := range vals {
			events[f] = Event{Val: v, Prob: probs[f], RV: rvIdx[f]}
		}
		slices.SortFunc(events, compareEvents)
		b.Run("N="+itoa(len(events)), func(b *testing.B) {
			var a Arena
			a.SweepSorted(events, size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += a.SweepSorted(events, size.n)
			}
		})
	}
}

var benchSink float64
