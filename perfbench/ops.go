package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	ukc "repro"
	"repro/client"
	"repro/serve"
)

// errMismatch marks an answer that differs from the direct ukc.Solver call
// on the same instance and arguments. serve promises bit-identical answers
// and the gateway's JSON round-trips float64 exactly, so any difference is a
// failed operation.
var errMismatch = errors.New("answer differs from the direct solver")

// opStats is what one completed operation reports besides its wall time.
type opStats struct {
	served      bool          // went through serve: queue and exec are meaningful
	queue, exec time.Duration // serve's own split of the request
	hit         bool          // serve ran it on warm caches
	layers      writeLayers   // catalog-churn write path timings
	http        httpCount     // HTTP attempts, filled in traced gateway runs
}

// writeLayers times the public calls a catalog write makes.
type writeLayers struct {
	readCompiled time.Duration // ukc.ReadCompiledInstance (dataio decode + compile)
	freeze       time.Duration // store.Write
	open         time.Duration // serve.Unregister + serve.RegisterSnapshot (store.Open)
	register     time.Duration // serve.Unregister + serve.Register
}

func (w writeLayers) total() time.Duration {
	return w.readCompiled + w.freeze + w.open + w.register
}

// servers are the in-process serving layers an op may target.
type servers struct {
	eu  *serve.Server[ukc.Vec]
	fin *serve.Server[int]
}

func serverOf[P any](s *servers) *serve.Server[P] {
	if sv, ok := any(s.eu).(*serve.Server[P]); ok {
		return sv
	}
	return any(s.fin).(*serve.Server[P])
}

// op is one distinct request of a workload's pool, with its expected answer
// captured in the closures. ratio is returned unassigned E-cost ÷ reference
// E-cost for solving ops (0 otherwise); since every served answer must equal
// the direct one, it is the ratio of the served answers.
type op struct {
	kind   string
	ratio  float64
	http   func(ctx context.Context, c *client.Client) (opStats, error)
	serve  func(ctx context.Context, s *servers) (opStats, error)
	direct func(ctx context.Context) error
}

func fromServe(st serve.RequestStats) opStats {
	return opStats{served: true, queue: st.Queue, exec: st.Exec, hit: st.CacheHit}
}

func fromHTTP(st client.Stats) opStats {
	ms := func(v float64) time.Duration { return time.Duration(math.Round(v * 1e6)) }
	return opStats{served: true, queue: ms(st.QueueMS), exec: ms(st.ExecMS), hit: st.CacheHit}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameFloat)
}

func sameCenters[P any](a, b []P) bool {
	if len(a) != len(b) {
		return false
	}
	switch x := any(a).(type) {
	case []ukc.Vec:
		return slices.EqualFunc(x, any(b).([]ukc.Vec), func(u, v ukc.Vec) bool { return sameFloats(u, v) })
	case []int:
		return slices.Equal(x, any(b).([]int))
	}
	panic(fmt.Sprintf("perfbench: unsupported location type %T", a))
}

func mismatch(what string) error { return fmt.Errorf("%w: %s", errMismatch, what) }

func checkSolve[P any](want ukc.ResultOf[P], k int, centers []P, assign []int, ecost, ecostU float64) error {
	switch {
	case len(centers) != k:
		return mismatch(fmt.Sprintf("solve returned %d centers, want %d", len(centers), k))
	case !finite(ecost, ecostU):
		return mismatch("solve returned a non-finite E-cost")
	case !sameCenters(want.Centers, centers), !slices.Equal(want.Assign, assign),
		!sameFloat(want.Ecost, ecost), !sameFloat(want.EcostUnassigned, ecostU):
		return mismatch("solve")
	}
	return nil
}

func solveOp[P any](ctx context.Context, in *instance[P], k int) (op, error) {
	solver := ukc.NewSolver[P]()
	want, err := solver.Solve(ctx, in.inst, k)
	if err != nil {
		return op{}, err
	}
	return op{
		kind:  "solve",
		ratio: want.EcostUnassigned / in.refCost,
		http: func(ctx context.Context, c *client.Client) (opStats, error) {
			r, err := c.Solve(ctx, in.name, k, 0)
			if err != nil {
				return opStats{}, err
			}
			centers, err := client.DecodeCenters[P](r.Centers)
			if err != nil {
				return opStats{}, err
			}
			return fromHTTP(r.Stats), checkSolve(want, k, centers, r.Assign, r.Ecost, r.EcostUnassigned)
		},
		serve: func(ctx context.Context, s *servers) (opStats, error) {
			r, err := serverOf[P](s).Solve(ctx, serve.SolveRequest{Instance: in.name, K: k})
			if err != nil {
				return opStats{}, err
			}
			g := r.Result
			return fromServe(r.Stats), checkSolve(want, k, g.Centers, g.Assign, g.Ecost, g.EcostUnassigned)
		},
		direct: func(ctx context.Context) error {
			g, err := solver.Solve(ctx, in.inst, k)
			if err != nil {
				return err
			}
			return checkSolve(want, k, g.Centers, g.Assign, g.Ecost, g.EcostUnassigned)
		},
	}, nil
}

func assignOp[P any](ctx context.Context, in *instance[P], centers []P) (op, error) {
	solver := ukc.NewSolver[P]()
	want, err := solver.Assign(ctx, in.inst, centers)
	if err != nil {
		return op{}, err
	}
	check := func(got []int) error {
		if !slices.Equal(want, got) {
			return mismatch("assign")
		}
		return nil
	}
	return op{
		kind: "assign",
		http: func(ctx context.Context, c *client.Client) (opStats, error) {
			r, err := c.Assign(ctx, in.name, centers, 0)
			if err != nil {
				return opStats{}, err
			}
			return fromHTTP(r.Stats), check(r.Assign)
		},
		serve: func(ctx context.Context, s *servers) (opStats, error) {
			r, err := serverOf[P](s).Assign(ctx, serve.AssignRequest[P]{Instance: in.name, Centers: centers})
			if err != nil {
				return opStats{}, err
			}
			return fromServe(r.Stats), check(r.Assign)
		},
		direct: func(ctx context.Context) error {
			got, err := solver.Assign(ctx, in.inst, centers)
			if err != nil {
				return err
			}
			return check(got)
		},
	}, nil
}

// ecostOp evaluates the assigned E-cost of (centers, assign), or the
// unassigned one when assign is nil.
func ecostOp[P any](ctx context.Context, in *instance[P], centers []P, assign []int) (op, error) {
	solver := ukc.NewSolver[P]()
	eval := func(ctx context.Context) (float64, error) {
		if assign != nil {
			return solver.Ecost(ctx, in.inst, centers, assign)
		}
		return solver.EcostUnassigned(ctx, in.inst, centers)
	}
	want, err := eval(ctx)
	if err != nil {
		return op{}, err
	}
	check := func(got float64) error {
		if !finite(got) || !sameFloat(want, got) {
			return mismatch("ecost")
		}
		return nil
	}
	return op{
		kind: "ecost",
		http: func(ctx context.Context, c *client.Client) (opStats, error) {
			r, err := c.Ecost(ctx, in.name, centers, assign, 0)
			if err != nil {
				return opStats{}, err
			}
			return fromHTTP(r.Stats), check(r.Ecost)
		},
		serve: func(ctx context.Context, s *servers) (opStats, error) {
			r, err := serverOf[P](s).Ecost(ctx, serve.EcostRequest[P]{Instance: in.name, Centers: centers, Assign: assign})
			if err != nil {
				return opStats{}, err
			}
			return fromServe(r.Stats), check(r.Ecost)
		},
		direct: func(ctx context.Context) error {
			got, err := eval(ctx)
			if err != nil {
				return err
			}
			return check(got)
		},
	}, nil
}

func sweepOp[P any](ctx context.Context, in *instance[P], centers []P) (op, error) {
	solver := ukc.NewSolver[P]()
	want, wantSnap, err := solver.EcostSweep(ctx, in.inst, centers)
	if err != nil {
		return op{}, err
	}
	check := func(sweep [][]float64, snapped []int) error {
		if !slices.Equal(wantSnap, snapped) || !slices.EqualFunc(want, sweep, sameFloats) {
			return mismatch("sweep")
		}
		for _, row := range sweep {
			if !finite(row...) {
				return mismatch("sweep returned a non-finite E-cost")
			}
		}
		return nil
	}
	return op{
		kind: "sweep",
		http: func(ctx context.Context, c *client.Client) (opStats, error) {
			r, err := c.Sweep(ctx, in.name, centers, 0)
			if err != nil {
				return opStats{}, err
			}
			var snapped []int
			if err := json.Unmarshal(r.Snapped, &snapped); err != nil {
				return opStats{}, err
			}
			return fromHTTP(r.Stats), check(r.Sweep, snapped)
		},
		serve: func(ctx context.Context, s *servers) (opStats, error) {
			r, err := serverOf[P](s).EcostSweep(ctx, serve.EcostSweepRequest[P]{Instance: in.name, Centers: centers})
			if err != nil {
				return opStats{}, err
			}
			return fromServe(r.Stats), check(r.Sweep, r.Snapped)
		},
		direct: func(ctx context.Context) error {
			sweep, snapped, err := solver.EcostSweep(ctx, in.inst, centers)
			if err != nil {
				return err
			}
			return check(sweep, snapped)
		},
	}, nil
}

func unassignedOp[P any](ctx context.Context, in *instance[P], k int) (op, error) {
	solver := ukc.NewSolver[P]()
	wantC, wantCost, err := solver.SolveUnassigned(ctx, in.inst, k)
	if err != nil {
		return op{}, err
	}
	check := func(centers []P, cost float64) error {
		switch {
		case len(centers) != k:
			return mismatch(fmt.Sprintf("unassigned returned %d centers, want %d", len(centers), k))
		case !finite(cost):
			return mismatch("unassigned returned a non-finite E-cost")
		case !sameCenters(wantC, centers), !sameFloat(wantCost, cost):
			return mismatch("unassigned")
		}
		return nil
	}
	return op{
		kind:  "unassigned",
		ratio: wantCost / in.refCost,
		http: func(ctx context.Context, c *client.Client) (opStats, error) {
			r, err := c.Unassigned(ctx, in.name, k, 0)
			if err != nil {
				return opStats{}, err
			}
			centers, err := client.DecodeCenters[P](r.Centers)
			if err != nil {
				return opStats{}, err
			}
			return fromHTTP(r.Stats), check(centers, r.Ecost)
		},
		serve: func(ctx context.Context, s *servers) (opStats, error) {
			r, err := serverOf[P](s).SolveUnassigned(ctx, serve.UnassignedRequest{Instance: in.name, K: k})
			if err != nil {
				return opStats{}, err
			}
			return fromServe(r.Stats), check(r.Centers, r.Ecost)
		},
		direct: func(ctx context.Context) error {
			centers, cost, err := solver.SolveUnassigned(ctx, in.inst, k)
			if err != nil {
				return err
			}
			return check(centers, cost)
		},
	}, nil
}
