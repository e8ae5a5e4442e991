// Package emax computes the exact expectation of the maximum of independent
// discrete random variables.
//
// This is the computational heart of the reproduction. The paper's cost
//
//	Ecost_A(C) = Σ_R prob(R) · max_i d(P̂_i, A(P_i))
//
// ranges over Π z_i realizations, which is exponential — but for a *fixed*
// center set and assignment the per-point distances D_i = d(X_i, A(P_i)) are
// independent discrete random variables, so
//
//	P(max_i D_i ≤ t) = Π_i F_i(t),   E[max] = Σ_k t_k · (G(t_k) − G(t_{k−1}))
//
// over the sorted union of support values t_k, with G = Π F_i. ExpectedMax
// implements that sweep in O(N log N) for N = Σ z_i, which is what makes the
// "exact empirical approximation ratio" experiments feasible; the sweep
// itself is linear, carrying G as a scaled product updated by one divide
// per support atom (Arena.SweepSorted). A brute-force
// enumeration oracle and a Monte-Carlo estimator are provided for
// cross-checking.
package emax

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// RV is a discrete random variable: P(X = Vals[j]) = Probs[j]. Values need
// not be sorted or distinct; probabilities must be non-negative and sum to 1
// within validation tolerance.
type RV struct {
	Vals  []float64
	Probs []float64
}

// ProbSumTol is the allowed deviation of Σ Probs from 1 in Validate.
const ProbSumTol = 1e-9

// Validate checks structural invariants: equal nonzero lengths, finite
// values, non-negative probabilities summing to 1 within ProbSumTol.
func (r RV) Validate() error {
	if len(r.Vals) == 0 {
		return fmt.Errorf("emax: RV with empty support")
	}
	if len(r.Vals) != len(r.Probs) {
		return fmt.Errorf("emax: RV with %d values and %d probabilities", len(r.Vals), len(r.Probs))
	}
	var sum float64
	for j, p := range r.Probs {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("emax: probability %d = %g", j, p)
		}
		if math.IsNaN(r.Vals[j]) || math.IsInf(r.Vals[j], 0) {
			return fmt.Errorf("emax: value %d = %g", j, r.Vals[j])
		}
		sum += p
	}
	if math.Abs(sum-1) > ProbSumTol {
		return fmt.Errorf("emax: probabilities sum to %g, want 1", sum)
	}
	return nil
}

// Mean returns E[X] = Σ_j Probs[j]·Vals[j].
func (r RV) Mean() float64 {
	var s float64
	for j, p := range r.Probs {
		s += p * r.Vals[j]
	}
	return s
}

// Sample draws one realization of X.
func (r RV) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	var acc float64
	for j, p := range r.Probs {
		acc += p
		if u < acc {
			return r.Vals[j]
		}
	}
	return r.Vals[len(r.Vals)-1] // guard against rounding of the prefix sums
}

// Event is one support atom in an expected-max sweep: value Val carrying
// probability mass Prob, belonging to the random variable with index RV.
// A stream of Events sorted ascending by Val is the input contract of
// Arena.SweepSorted — the allocation-free core of ExpectedMax that callers
// with presorted supports (the incremental swap evaluator in internal/core)
// drive directly, skipping the per-call event build and sort.
type Event struct {
	Val  float64
	Prob float64
	RV   int32
}

// CompareValues is the three-way comparison behind every ascending sort
// that feeds a sweep: the event streams here and the presorted distance
// columns of internal/core. It is negative exactly when a < b.
// slices.SortFunc only tests cmp(a, b) < 0 where sort.Slice tests
// less(a, b), and both run the same pdqsort, so equal values end up in the
// same permutation as under sort.Slice with a `<` less function — and the
// sweep sums them in the same order.
func CompareValues(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareEvents(x, y Event) int { return CompareValues(x.Val, y.Val) }

// Arena carries the reusable scratch buffers of repeated expected-max
// sweeps: the event stream and the per-RV CDF state. A zero Arena is ready
// to use; buffers grow to the high-water mark of the evaluations run
// through it and are reused afterwards, so steady-state evaluations of
// same-shaped inputs do not allocate. An Arena is not safe for concurrent
// use; give each worker its own.
type Arena struct {
	events []Event
	cdf    []float64
}

// ExpectedMax returns E[max_i X_i] for independent X_i, exactly (up to
// floating point), via the merged-CDF sweep. It returns an error if any RV
// fails Validate; an empty slice has expected max 0 by convention.
func ExpectedMax(rvs []RV) (float64, error) {
	var a Arena
	return a.ExpectedMax(rvs)
}

// ExpectedMax is the package-level ExpectedMax evaluated on the arena's
// reusable buffers: identical validation, identical result, and no
// allocations once the arena has grown to the input's size.
func (a *Arena) ExpectedMax(rvs []RV) (float64, error) {
	if len(rvs) == 0 {
		return 0, nil
	}
	events := a.events[:0]
	for i, r := range rvs {
		if err := r.Validate(); err != nil {
			return 0, fmt.Errorf("rv %d: %w", i, err)
		}
		for j, v := range r.Vals {
			if r.Probs[j] > 0 {
				events = append(events, Event{Val: v, Prob: r.Probs[j], RV: int32(i)})
			}
		}
	}
	a.events = events
	slices.SortFunc(events, compareEvents)
	return a.SweepSorted(events, len(rvs)), nil
}

// ExpectedMaxFlat computes E[max_i X_i] directly from a flat
// structure-of-arrays atom layout: atom f has value vals[f] with probability
// probs[f] and belongs to the random variable rvIdx[f] ∈ [0, nRVs). This is
// the representation a compiled instance (internal/core.Compiled) holds, so
// the evaluator consumes it without materializing per-RV slices.
//
// It is the validation-free fast path: the caller guarantees that values are
// finite, probabilities are positive (zero-probability atoms pruned), and
// each RV's total mass is 1 within ProbSumTol — the invariants a compiled
// instance establishes once at compile time. Given a warmed arena it
// performs no allocations. The result is bit-identical to ExpectedMax over
// the equivalent per-RV slices: the pre-sort event order (ascending f)
// matches the per-RV construction order.
func (a *Arena) ExpectedMaxFlat(vals, probs []float64, rvIdx []int32, nRVs int) float64 {
	events := a.events[:0]
	for f, v := range vals {
		events = append(events, Event{Val: v, Prob: probs[f], RV: rvIdx[f]})
	}
	a.events = events
	slices.SortFunc(events, compareEvents)
	return a.SweepSorted(events, nRVs)
}

// Bounds of the scaled product in SweepSorted. The running mantissa is
// renormalised into [0.5, 1) whenever it leaves [scaleLo, scaleHi], and a
// factor is multiplied in directly only when it lies in
// [tinyMass, 1/tinyMass]; a more extreme factor is split with Frexp first.
// The product of a mantissa and a direct factor therefore stays within
// [2^-768, 2^768], finite and normal, whatever the masses are.
const (
	scaleLo  = 0x1p-256
	scaleHi  = 0x1p256
	tinyMass = 0x1p-512
)

// SweepSorted computes E[max] from an event stream already sorted ascending
// by Val, for nRVs random variables indexed 0..nRVs-1. It is the sweep of
// ExpectedMax with the validation and the sort stripped; the caller
// guarantees the order, that every Prob is positive, and that each RV's
// total mass is 1 within ProbSumTol. Given a warmed arena it performs no
// allocations — the contract the incremental swap evaluator's benchmarks
// pin with ReportAllocs.
//
// G(t) = Π_i F_i(t) is kept as a scaled product mant·2^exp of the non-zero
// factors, updated multiplicatively: an RV's first event multiplies by its
// new CDF, each later event by the ratio new/old of its CDF. That costs one
// divide per event and no logarithm, and adds about 2 ulp of relative error
// per event whatever the magnitude of G; the exponent is carried apart, so
// G may fall far below the float64 range in the middle of a sweep (2000
// fair coins) and still climb back to exactly 1.
func (a *Arena) SweepSorted(events []Event, nRVs int) float64 {
	if len(events) == 0 {
		return 0
	}
	if cap(a.cdf) < nRVs {
		a.cdf = make([]float64, nRVs)
	}
	cdf := a.cdf[:nRVs]
	for i := range cdf {
		cdf[i] = 0
	}

	// F_i starts at 0, so the count of zero factors is tracked apart and G
	// is zero until zeros == 0.
	zeros := nRVs
	mant, exp := 1.0, 0

	var expected float64
	prevG := 0.0
	i := 0
	for i < len(events) {
		t := events[i].Val
		// Apply every event at this exact value before reading G(t).
		for i < len(events) && events[i].Val == t {
			e := events[i]
			old := cdf[e.RV]
			nw := old + e.Prob
			if nw > 1 {
				nw = 1 // clamp prefix-sum rounding
			}
			cdf[e.RV] = nw
			switch {
			case old == 0:
				zeros--
				if nw >= tinyMass {
					mant *= nw
				} else {
					fr, fe := math.Frexp(nw)
					mant *= fr
					exp += fe
				}
			case old >= tinyMass:
				mant *= nw / old
			default:
				fn, en := math.Frexp(nw)
				fo, eo := math.Frexp(old)
				mant *= fn / fo
				exp += en - eo
			}
			if mant < scaleLo || mant > scaleHi {
				fr, fe := math.Frexp(mant)
				mant = fr
				exp += fe
			}
			i++
		}
		var g float64
		if zeros == 0 {
			g = math.Ldexp(mant, exp)
			if g > 1 {
				g = 1
			}
		}
		if g > prevG {
			expected += t * (g - prevG)
			prevG = g
		}
	}
	return expected
}

// ExpectedMaxNaive enumerates all Π z_i joint realizations. It is the test
// oracle; it returns an error if the joint support exceeds maxStates (use
// ~1e7) or any RV is invalid.
func ExpectedMaxNaive(rvs []RV, maxStates int) (float64, error) {
	if len(rvs) == 0 {
		return 0, nil
	}
	states := 1
	for i, r := range rvs {
		if err := r.Validate(); err != nil {
			return 0, fmt.Errorf("rv %d: %w", i, err)
		}
		states *= len(r.Vals)
		if states > maxStates || states < 0 {
			return 0, fmt.Errorf("emax: joint support exceeds %d states", maxStates)
		}
	}
	idx := make([]int, len(rvs))
	var expected float64
	for {
		prob := 1.0
		maxV := math.Inf(-1)
		for i, r := range rvs {
			prob *= r.Probs[idx[i]]
			if v := r.Vals[idx[i]]; v > maxV {
				maxV = v
			}
		}
		expected += prob * maxV
		// Odometer increment.
		k := 0
		for k < len(rvs) {
			idx[k]++
			if idx[k] < len(rvs[k].Vals) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == len(rvs) {
			return expected, nil
		}
	}
}

// MonteCarloMax estimates E[max_i X_i] with `samples` independent joint
// draws. Used in tests to cross-check ExpectedMax on instances too large for
// the naive oracle.
func MonteCarloMax(rvs []RV, samples int, rng *rand.Rand) float64 {
	if len(rvs) == 0 || samples <= 0 {
		return 0
	}
	var sum float64
	for s := 0; s < samples; s++ {
		maxV := math.Inf(-1)
		for _, r := range rvs {
			if v := r.Sample(rng); v > maxV {
				maxV = v
			}
		}
		sum += maxV
	}
	return sum / float64(samples)
}

// MaxCDF returns P(max_i X_i ≤ t) for each query threshold, exploiting the
// same independence factorization as ExpectedMax: P(max ≤ t) = Π_i F_i(t).
// The queries need not be sorted. Returns an error on invalid RVs.
func MaxCDF(rvs []RV, ts []float64) ([]float64, error) {
	out := make([]float64, len(ts))
	for i := range out {
		out[i] = 1
	}
	for i, r := range rvs {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("rv %d: %w", i, err)
		}
		for q, t := range ts {
			var f float64
			for j, v := range r.Vals {
				if v <= t {
					f += r.Probs[j]
				}
			}
			if f > 1 {
				f = 1
			}
			out[q] *= f
		}
	}
	return out, nil
}

// ExpectedMaxUpperTail returns P(max_i X_i > t) — useful for tail diagnostics
// in the harness. Returns an error on invalid RVs.
func ExpectedMaxUpperTail(rvs []RV, t float64) (float64, error) {
	prod := 1.0
	for i, r := range rvs {
		if err := r.Validate(); err != nil {
			return 0, fmt.Errorf("rv %d: %w", i, err)
		}
		var f float64
		for j, v := range r.Vals {
			if v <= t {
				f += r.Probs[j]
			}
		}
		if f > 1 {
			f = 1
		}
		prod *= f
	}
	return 1 - prod, nil
}
