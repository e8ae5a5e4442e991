package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	ukc "repro"
)

// Every input the program receives is drawn here from the run's seed and
// handed over as the JSON instance documents a user would upload (the
// schema cmd/datagen writes). Only public API is used, so the benchmark
// keeps building while internal packages change.

// genEuclidean draws n uncertain points in the plane: true positions from
// six Gaussian clusters centred on a fixed ring, each point's z locations
// jittered around its true position, probabilities bounded away from zero.
// The fixed cluster layout keeps the local search's work, which follows the
// cluster structure, about the same from seed to seed.
func genEuclidean(rng *rand.Rand, n, z int) ([]ukc.Point, error) {
	clusters := make([][2]float64, 6)
	for c := range clusters {
		a := 2 * math.Pi * float64(c) / float64(len(clusters))
		clusters[c] = [2]float64{50 + 35*math.Cos(a), 50 + 35*math.Sin(a)}
	}
	pts := make([]ukc.Point, n)
	for i := range pts {
		c := clusters[rng.Intn(len(clusters))]
		hx, hy := c[0]+6*rng.NormFloat64(), c[1]+6*rng.NormFloat64()
		locs := make([]ukc.Vec, z)
		for j := range locs {
			locs[j] = ukc.Vec{hx + 1.5*rng.NormFloat64(), hy + 1.5*rng.NormFloat64()}
		}
		p, err := ukc.NewPoint(locs, randProbs(rng, z))
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

func randProbs(rng *rand.Rand, z int) []float64 {
	probs := make([]float64, z)
	var sum float64
	for j := range probs {
		probs[j] = 0.05 + rng.Float64()
		sum += probs[j]
	}
	for j := range probs {
		probs[j] /= sum
	}
	return probs
}

func euclideanDoc(rng *rand.Rand, n, z int) ([]byte, error) {
	pts, err := genEuclidean(rng, n, z)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := ukc.WriteInstance(&b, pts); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// finiteDocument is the finite-kind instance document.
type finiteDocument struct {
	Kind   string        `json:"kind"`
	Points []finitePoint `json:"finite_points"`
	Metric [][]float64   `json:"metric"`
}

type finitePoint struct {
	Locs  []int     `json:"locs"`
	Probs []float64 `json:"probs"`
}

// finiteDoc draws a random geometric graph on v vertices of the unit square
// (each vertex joined to its nearest earlier vertex, which keeps it
// connected, and to every vertex within 0.15), takes its shortest-path
// metric, and places n uncertain points on z vertices near a random home.
func finiteDoc(rng *rand.Rand, v, n, z int) ([]byte, error) {
	pos := make([][2]float64, v)
	for i := range pos {
		pos[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	d := make([][]float64, v)
	for i := range d {
		d[i] = make([]float64, v)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	edge := func(i, j int) {
		w := math.Hypot(pos[i][0]-pos[j][0], pos[i][1]-pos[j][1])
		d[i][j], d[j][i] = w, w
	}
	for i := 1; i < v; i++ {
		near := 0
		for j := 0; j < i; j++ {
			if math.Hypot(pos[i][0]-pos[j][0], pos[i][1]-pos[j][1]) < 0.15 {
				edge(i, j)
			}
			if math.Hypot(pos[i][0]-pos[j][0], pos[i][1]-pos[j][1]) < math.Hypot(pos[i][0]-pos[near][0], pos[i][1]-pos[near][1]) {
				near = j
			}
		}
		edge(i, near)
	}
	for k := 0; k < v; k++ {
		for i := 0; i < v; i++ {
			for j := 0; j < v; j++ {
				if s := d[i][k] + d[k][j]; s < d[i][j] {
					d[i][j] = s
				}
			}
		}
	}
	for i := 0; i < v; i++ {
		for j := i + 1; j < v; j++ {
			m := math.Min(d[i][j], d[j][i])
			d[i][j], d[j][i] = m, m
		}
	}
	doc := finiteDocument{Kind: "finite", Metric: d, Points: make([]finitePoint, n)}
	order := make([]int, v)
	for i := range doc.Points {
		home := rng.Intn(v)
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(a, b int) bool { return d[home][order[a]] < d[home][order[b]] })
		near := order[:2*z]
		rng.Shuffle(len(near), func(a, b int) { near[a], near[b] = near[b], near[a] })
		doc.Points[i] = finitePoint{Locs: append([]int(nil), near[:z]...), Probs: randProbs(rng, z)}
	}
	return json.Marshal(doc)
}

// instance is one catalog entry: its uploaded document, the benchmark's own
// compiled copy (the direct-solver side of every correctness check) and the
// reference center set the ecost_ratio metric divides by.
type instance[P any] struct {
	name    string
	doc     []byte
	inst    ukc.Instance[P]
	ref     []P
	refCost float64
}

func readEuclidean(r io.Reader) (ukc.Instance[ukc.Vec], error) { return ukc.ReadCompiledInstance(r) }
func readFinite(r io.Reader) (ukc.Instance[int], error)        { return ukc.ReadCompiledFiniteInstance(r) }

func loadInstance[P any](ctx context.Context, name string, doc []byte, k int, read func(io.Reader) (ukc.Instance[P], error)) (*instance[P], error) {
	inst, err := read(bytes.NewReader(doc))
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", name, err)
	}
	ref := referenceCenters(inst, k)
	cost, err := ukc.NewSolver[P]().EcostUnassigned(ctx, inst, ref)
	if err != nil {
		return nil, fmt.Errorf("reference cost of %s: %w", name, err)
	}
	return &instance[P]{name: name, doc: doc, inst: inst, ref: ref, refCost: cost}, nil
}

// referenceCenters is the benchmark's fixed baseline for ecost_ratio:
// farthest-first traversal over each point's most probable location,
// starting from the first point's. It is deterministic and independent of
// the solver under test.
func referenceCenters[P any](inst ukc.Instance[P], k int) []P {
	modes := make([]P, len(inst.Points))
	for i, p := range inst.Points {
		best := 0
		for j := range p.Probs {
			if p.Probs[j] > p.Probs[best] {
				best = j
			}
		}
		modes[i] = p.Locs[best]
	}
	centers := []P{modes[0]}
	dist := make([]float64, len(modes))
	for i := range modes {
		dist[i] = inst.Space.Dist(modes[i], modes[0])
	}
	for len(centers) < k {
		far := 0
		for i := range dist {
			if dist[i] > dist[far] {
				far = i
			}
		}
		centers = append(centers, modes[far])
		for i := range modes {
			dist[i] = math.Min(dist[i], inst.Space.Dist(modes[i], modes[far]))
		}
	}
	return centers
}

// randomCenters picks k distinct candidates of the instance (its vertices
// for a finite instance, its point locations otherwise) as the center set
// of an assign, ecost or sweep request.
func randomCenters[P any](rng *rand.Rand, inst ukc.Instance[P], k int) []P {
	all := inst.Candidates
	if len(all) == 0 {
		for _, p := range inst.Points {
			all = append(all, p.Locs...)
		}
	}
	out := make([]P, k)
	for i, j := range rng.Perm(len(all))[:k] {
		out[i] = all[j]
	}
	return out
}
