package emax

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSweepRecoversFromUnderflow: with 2000 iid fair coins on {1, 2}, G(1)
// = 2^-2000 lies far below the float64 range, and every second event must
// lift G back to exactly 1. A product that underflows and never recovers
// returns 0; the scaled product returns exactly 2.
func TestSweepRecoversFromUnderflow(t *testing.T) {
	const n = 2000
	coin := RV{Vals: []float64{1, 2}, Probs: []float64{0.5, 0.5}}
	rvs := make([]RV, n)
	vals := make([]float64, 0, 2*n)
	probs := make([]float64, 0, 2*n)
	rvIdx := make([]int32, 0, 2*n)
	for i := range rvs {
		rvs[i] = coin
		vals = append(vals, coin.Vals...)
		probs = append(probs, coin.Probs...)
		rvIdx = append(rvIdx, int32(i), int32(i))
	}
	got, err := ExpectedMax(rvs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("ExpectedMax of %d fair coins on {1, 2} = %v, want exactly 2", n, got)
	}
	var a Arena
	if got := a.ExpectedMaxFlat(vals, probs, rvIdx, n); got != 2 {
		t.Fatalf("ExpectedMaxFlat of %d fair coins on {1, 2} = %v, want exactly 2", n, got)
	}
}

// extremeMasses are the atom masses that push the scaled product to the
// edges of the float64 range: a first event as small as the smallest
// subnormal, and ratios new/old as large as its reciprocal. 0 stands for
// an ordinary mass.
var extremeMasses = []float64{1e-300, math.SmallestNonzeroFloat64, 0x1p-520, 1e-30, 0}

// adversarialRVs decodes bytes (zero once exhausted) into 1–4 RVs that
// stress the sweep's precision:
//   - 3–6 atoms per RV on a 1/16 grid in [0, 1), so values tie within and
//     across RVs;
//   - the first and last atom in each RV's value order take a mass from
//     extremeMasses, and so may any atom between them;
//   - RV 0's masses sum to 1 + u·ProbSumTol/2, the others' to
//     1 − u·ProbSumTol, for a byte-chosen u ∈ [0, 1].
//
// The sweep clamps each CDF at 1 and the naive oracle does not, so a sum
// above 1 separates the two by up to (sum − 1)·max value. Keeping one RV
// above 1 and every value below 1 bounds that gap by ProbSumTol/2, half
// the comparison tolerance; sums below 1 leave no gap at all.
func adversarialRVs(data []byte) []RV {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	rvs := make([]RV, 1+next()%4)
	for i := range rvs {
		z := 3 + int(next()%4)
		vals := make([]float64, z)
		probs := make([]float64, z)
		v := float64(next()%4) / 16
		var tiny, weights float64
		for j := range vals {
			if j > 0 {
				v += float64(next()%3) / 16
			}
			vals[j] = v
			var m float64
			if j == 0 || j == z-1 || next()%3 == 0 {
				m = extremeMasses[int(next())%len(extremeMasses)]
			}
			if m > 0 {
				probs[j] = m
				tiny += m
			} else {
				probs[j] = -(1 + float64(next())) // an ordinary weight, scaled below
				weights -= probs[j]
			}
		}
		if weights == 0 { // every atom extreme: make a middle one ordinary
			tiny -= probs[1]
			probs[1] = -1
			weights = 1
		}
		dev := -float64(next()) / 255 * ProbSumTol
		if i == 0 {
			dev = float64(next()) / 255 * ProbSumTol / 2
		}
		scale := (1 + dev - tiny) / weights
		for j, p := range probs {
			if p < 0 {
				probs[j] = -p * scale
			}
		}
		rvs[i] = RV{Vals: vals, Probs: probs}
	}
	return rvs
}

// checkAgainstNaive runs ExpectedMax (and through it SweepSorted) and
// ExpectedMaxFlat on rvs and compares both with the naive enumeration: the
// two paths agree bit for bit, the result is finite, and it lies within
// 1e-9·(1+|want|) of the oracle. It reports false, checking nothing, when
// rounding left the masses outside ProbSumTol.
func checkAgainstNaive(t *testing.T, rvs []RV) bool {
	t.Helper()
	want, err := ExpectedMaxNaive(rvs, 1<<16)
	if err != nil {
		return false
	}
	var a Arena
	got, err := a.ExpectedMax(rvs)
	if err != nil {
		t.Fatal(err)
	}
	var vals, probs []float64
	var rvIdx []int32
	for i, r := range rvs {
		vals = append(vals, r.Vals...)
		probs = append(probs, r.Probs...)
		for range r.Vals {
			rvIdx = append(rvIdx, int32(i))
		}
	}
	flat := a.ExpectedMaxFlat(vals, probs, rvIdx, len(rvs))
	if flat != got {
		t.Fatalf("ExpectedMaxFlat %v != ExpectedMax %v", flat, got)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("non-finite E[max] %v (naive %v)", got, want)
	}
	if !approxEq(got, want, 1e-9*(1+math.Abs(want))) {
		t.Fatalf("sweep %v vs naive %v (diff %g)", got, want, got-want)
	}
	return true
}

// TestExpectedMaxExtremeMasses drives the sweep with atoms of mass down to
// the smallest subnormal at both ends of every RV's value order, masses
// summing to 1 within ProbSumTol, and heavy ties across RVs.
func TestExpectedMaxExtremeMasses(t *testing.T) {
	grid := []float64{0, 0.25, 0.5, 0.75}
	const dev = 0.9 * ProbSumTol
	handBuilt := []RV{
		{Vals: grid, Probs: []float64{1e-300, 0.5, 0.5 + dev/2, 1e-300}},
		{Vals: grid, Probs: []float64{math.SmallestNonzeroFloat64, 0.25, 0.75 - dev, 1e-300}},
		{Vals: grid[1:], Probs: []float64{1e-300, 1 - dev, 1e-300}},
	}
	if !checkAgainstNaive(t, handBuilt) {
		t.Fatal("hand-built RVs rejected by the oracle")
	}
	rng := rand.New(rand.NewSource(80))
	data := make([]byte, 64)
	const trials = 2000
	checked := 0
	for trial := 0; trial < trials; trial++ {
		rng.Read(data)
		if checkAgainstNaive(t, adversarialRVs(data)) {
			checked++
		}
	}
	if checked < trials*9/10 {
		t.Fatalf("only %d of %d random inputs were valid", checked, trials)
	}
}

// FuzzExpectedMax is TestExpectedMaxExtremeMasses over fuzzer-chosen bytes
// (`make fuzz-emax`).
func FuzzExpectedMax(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 0, 0, 1, 1, 0, 200, 2, 0, 3, 0, 0, 0, 1, 1, 0, 200, 2, 0})
	f.Add([]byte{1, 2, 1, 1, 1, 0, 0, 2, 2, 4, 255, 1, 1, 9, 7, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkAgainstNaive(t, adversarialRVs(data)) {
			t.Skip("masses outside ProbSumTol after rounding")
		}
	})
}

// TestExpectedMaxFlatAllocs pins the warmed arena path at zero allocations:
// the typed sort takes no closure and no reflective swapper.
func TestExpectedMaxFlatAllocs(t *testing.T) {
	vals, probs, rvIdx := flatInstance(150, 4)
	var a Arena
	a.ExpectedMaxFlat(vals, probs, rvIdx, 150)
	allocs := testing.AllocsPerRun(100, func() {
		benchSink += a.ExpectedMaxFlat(vals, probs, rvIdx, 150)
	})
	if allocs != 0 {
		t.Fatalf("warmed ExpectedMaxFlat allocates %v times per call, want 0", allocs)
	}
}

// TestTypedSortKeepsTiePermutation pins the premise that lets the typed
// sort replace sort.Slice without moving a single E-cost: on tie-heavy
// event arrays of every size class pdqsort distinguishes, slices.SortFunc
// with compareEvents leaves equal values in exactly the permutation
// sort.Slice with a `<` less function gives them.
func TestTypedSortKeepsTiePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(1+[]int{12, 50, 200, 1500}[trial%4])
		want := make([]Event, n)
		for i := range want {
			want[i] = Event{Val: float64(rng.Intn(1 + n/4)), RV: int32(i)}
		}
		got := slices.Clone(want)
		sort.Slice(want, func(x, y int) bool { return want[x].Val < want[y].Val })
		slices.SortFunc(got, compareEvents)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): typed sort permutes ties differently", trial, n)
		}
	}
}
