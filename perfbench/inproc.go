package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	ukc "repro"
	"repro/obs"
	"repro/serve"
	"repro/store"
)

// serverSetup builds a serving layer (with tracer on its solver when set),
// registers the catalog, and returns the dataio load time in ms.
type serverSetup func(tracer obs.Tracer) (*servers, float64, error)

// replay is the in-process part of a traced run: phase b untraced, with
// the Go runtime counters around it, and phase c with the solver spans
// recorded. Each phase gets its own freshly set-up serving layer; the
// traced set-up's spans and times give the set-up rows.
type replay struct {
	b, c       phase
	rt         [2]runtimeCounters
	setupSpans []span
	setupS     float64
	readMS     float64
	counters   [2]serve.ShardMetrics // serving counters around phase c
}

func replayPhases(ctx context.Context, w *workload, secs float64, setup serverSetup, rep *report) (*replay, error) {
	rp := &replay{}
	for _, traced := range []bool{false, true} {
		var log *spanLog
		var tr obs.Tracer
		if traced {
			log = &spanLog{}
			tr = log
		}
		start := time.Now()
		s, readMS, err := inprocSetup(ctx, w, setup, tr)
		if err != nil {
			return nil, err
		}
		if traced {
			rp.setupS, rp.readMS, rp.setupSpans = time.Since(start).Seconds(), readMS, log.take()
			rp.counters[0] = s.totals()
		} else {
			rp.rt[0] = readRuntime()
		}
		p := phase{res: closedLoop(ctx, loopConfig{clients: w.clients, seconds: secs, roundOps: len(w.pool), run: serveRun(w, s), cpu: selfCPU})}
		p.ops = len(p.res.samples)
		if traced {
			p.spans = log.take()
			rp.counters[1] = s.totals()
			rp.c = p
		} else {
			rp.rt[1] = readRuntime()
			rp.b = p
		}
		s.close()
		rep.count(p.res)
	}
	return rp, nil
}

// setupRows are the traced set-up's rows: its wall time, the dataio loads
// and the core cache builds it triggered.
func (rp *replay) setupRows(totalS float64) []layerRow {
	var build time.Duration
	isBuild := named("surrogate.build.*", "evaluator.build", "candindex.build", "candgraph.build")
	for _, sp := range rp.setupSpans {
		if isBuild(sp.name) {
			build += sp.self
		}
	}
	return []layerRow{
		fixed("setup.total_s", "s", totalS),
		fixed("setup.read_compiled_ms", "ms", rp.readMS),
		fixed("setup.core_build_ms", "ms", ms(build)),
	}
}

// inprocSetup is one set-up of an in-process workload: building and
// registering the catalog (tracer, when set, on the solver), then its first
// requests. It returns the dataio load time in ms.
func inprocSetup(ctx context.Context, w *workload, setup serverSetup, tracer obs.Tracer) (*servers, float64, error) {
	s, readMS, err := setup(tracer)
	if err != nil {
		return nil, 0, err
	}
	if err := runOps(ctx, w, w.warm, func(ctx context.Context, o op) (opStats, error) { return o.serve(ctx, s) }); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, readMS, nil
}

// serveRun issues op seq of the workload to the in-process serving layer.
func serveRun(w *workload, s *servers) func(context.Context, int) (string, opStats, error) {
	return func(ctx context.Context, seq int) (string, opStats, error) {
		o := w.at(seq)
		st, err := o.serve(ctx, s)
		return o.kind, st, err
	}
}

// runInproc measures an in-process workload: set-up times and the
// end-to-end metrics, or, traced, its layer table.
func runInproc(ctx context.Context, cfg runConfig, w *workload, setup serverSetup, rep *report) error {
	if cfg.trace {
		rp, err := replayPhases(ctx, w, cfg.seconds/2, setup, rep)
		if err != nil {
			return err
		}
		c := rp.c
		rows := rp.setupRows(rp.setupS)
		d := rp.counters
		rows = append(rows, serveRows(c, d[1].Rejected-d[0].Rejected, d[1].Admitted-d[0].Admitted, d[1].Evictions-d[0].Evictions)...)
		rows = append(rows, layer("serve.overhead_us", "us", c, func(p phase) float64 { return 1e3 * mean(served(p, outsideMS)) }))
		rows = append(rows, coreTable(c)...)
		writes := func(f func(writeLayers) time.Duration) rowFn {
			return func(p phase) float64 {
				var xs []float64
				for _, s := range p.res.samples {
					if v := f(s.st.layers); v > 0 {
						xs = append(xs, ms(v))
					}
				}
				if len(xs) == 0 {
					return 0
				}
				return mean(xs)
			}
		}
		rows = append(rows,
			layer("store.freeze_ms", "ms", c, writes(func(l writeLayers) time.Duration { return l.freeze })),
			layer("store.open_ms", "ms", c, writes(func(l writeLayers) time.Duration { return l.open })),
			layer("dataio.read_compiled_ms", "ms", c, writes(func(l writeLayers) time.Duration { return l.readCompiled })),
			layer("serve.register_ms", "ms", c, writes(func(l writeLayers) time.Duration { return l.register })),
		)
		rows = append(rows, runtimeRows(rp.rt[0], rp.rt[1], rp.b.ops)...)
		rows = append(rows,
			fixed("attributed_share", "ratio", 1-unattributed(c)/perOp(c, wallMS)),
			fixed("trace.overhead_share", "ratio", perOp(c, wallMS)/perOp(rp.b, wallMS)-1),
		)
		rep.table = rows
		return nil
	}
	s, setupRuns, err := repeatSetup(func() (*servers, error) {
		s, _, err := inprocSetup(ctx, w, setup, nil)
		return s, err
	}, (*servers).close, func(*servers) float64 { return 0 })
	if err != nil {
		return err
	}
	defer s.close()
	run := serveRun(w, s)
	resetPeakRSS()
	warmUp(ctx, w, run, selfCPU)
	res := closedLoop(ctx, loopConfig{clients: w.clients, seconds: cfg.seconds, roundOps: len(w.pool), run: run, cpu: selfCPU})
	rep.count(res)
	return endToEnd(rep, w, res, setupRuns, peakRSSMB(os.Getpid()))
}

// euclideanCatalog draws count instances, instance i with size(i) points of
// z = 4 locations.
func euclideanCatalog(ctx context.Context, rng *rand.Rand, count int, size func(i int) int) ([]*instance[ukc.Vec], error) {
	var out []*instance[ukc.Vec]
	for i := 0; i < count; i++ {
		doc, err := euclideanDoc(rng, size(i), 4)
		if err != nil {
			return nil, err
		}
		in, err := loadInstance(ctx, fmt.Sprintf("eu%d", i), doc, 4, readEuclidean)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// newServers builds the in-process serving layers, one per instance kind
// of the catalog: one shard whose two workers serve the two clients, plus
// opts, with tracer (when set) on the solver. It loads every document the
// way a serving process does (ukc's compiled JSON loader, i.e. dataio),
// registers it, and returns the load time in ms.
func newServers(ctx context.Context, tracer obs.Tracer, eu []*instance[ukc.Vec], fin []*instance[int], opts ...serve.Option) (*servers, float64, error) {
	s := &servers{}
	var readMS float64
	var err error
	s.eu, err = serveCatalog(ctx, tracer, eu, readEuclidean, &readMS, opts)
	if err == nil && len(fin) > 0 {
		s.fin, err = serveCatalog(ctx, tracer, fin, readFinite, &readMS, opts)
	}
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, readMS, nil
}

func serveCatalog[P any](ctx context.Context, tracer obs.Tracer, cat []*instance[P], read func(io.Reader) (ukc.Instance[P], error), readMS *float64, opts []serve.Option) (*serve.Server[P], error) {
	var sopts []ukc.Option
	if tracer != nil {
		sopts = append(sopts, ukc.WithTracer(tracer))
	}
	s, err := serve.New(ukc.NewSolver[P](sopts...), append([]serve.Option{serve.WithShards(1), serve.WithWorkersPerShard(workers)}, opts...)...)
	if err != nil {
		return nil, err
	}
	for _, in := range cat {
		t := time.Now()
		inst, err := read(bytes.NewReader(in.doc))
		*readMS += ms(time.Since(t))
		if err == nil {
			err = s.Register(ctx, in.name, inst)
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("loading %s: %w", in.name, err)
		}
	}
	return s, nil
}

func (s *servers) close() {
	if s.eu != nil {
		s.eu.Close()
	}
	if s.fin != nil {
		s.fin.Close()
	}
}

func (s *servers) totals() serve.ShardMetrics {
	t := s.eu.Metrics().Totals()
	if s.fin != nil {
		f := s.fin.Metrics().Totals()
		t.Admitted += f.Admitted
		t.Rejected += f.Rejected
		t.Evictions += f.Evictions
	}
	return t
}

// runCatalogChurn: reads (solves, unassigned searches) beside catalog
// writes — reloading an instance from its JSON document and re-registering
// it, or freezing it to a snapshot and re-registering it from there — on a
// server whose cache budget holds about a third of the working set, so
// caches are evicted and rebuilt continuously. One client issues them: the
// eviction order then follows the op sequence, and no read can meet an
// instance between its Unregister and Register.
func runCatalogChurn(ctx context.Context, cfg runConfig, rng *rand.Rand, rep *report) error {
	cat, err := euclideanCatalog(ctx, rng, 12, func(i int) int { return 60 + 5*i })
	if err != nil {
		return err
	}
	var working int64
	for _, in := range cat {
		if _, _, err := ukc.NewSolver[ukc.Vec]().SolveUnassigned(ctx, in.inst, 2); err != nil {
			return err
		}
		c, err := in.inst.Compile(ctx)
		if err != nil {
			return err
		}
		working += c.CacheBytes()
	}
	snapDir, err := os.MkdirTemp(cfg.dir, "churn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapDir)

	// Per round of 60 ops: 40 solves, 12 unassigned searches at k = 2 (one
	// per instance), 4 reloads and 4 snapshot swaps, spread over the
	// instances in a fixed pattern. Solves are two thirds of the ops so the
	// p50 lies inside them rather than on the edge to the writes.
	var pool []op
	var names []string
	for i := 0; i < 60; i++ {
		in := cat[(i*5)%len(cat)]
		var o op
		switch {
		case i < 40:
			o, err = solveOp(ctx, in, 3+i%4)
		case i < 52:
			o, err = unassignedOp(ctx, in, 2)
		case i < 56:
			o = reloadOp(in)
		default:
			o = thawOp(in, snapDir)
		}
		if err != nil {
			return err
		}
		pool = append(pool, o)
		names = append(names, in.name)
	}
	w := newWorkload(rng, 1, pool, warmSet(pool, names))
	// p90 lies among the searches (the slowest fifth of the ops); p75 lies
	// among the writes, which wait on fsync.
	w.tail = 0.90
	return runInproc(ctx, cfg, w, func(tracer obs.Tracer) (*servers, float64, error) {
		return newServers(ctx, tracer, cat, nil, serve.WithCacheBudget(working/3))
	}, rep)
}

// reloadOp re-reads the instance's JSON document and registers the fresh
// instance in place of the old one.
func reloadOp(in *instance[ukc.Vec]) op {
	return op{kind: "reload", serve: func(ctx context.Context, s *servers) (opStats, error) {
		var l writeLayers
		t := time.Now()
		inst, err := ukc.ReadCompiledInstance(bytes.NewReader(in.doc))
		l.readCompiled = time.Since(t)
		if err != nil {
			return opStats{layers: l}, err
		}
		t = time.Now()
		err = reregister(s, in.name, func() error { return s.eu.Register(ctx, in.name, inst) })
		l.register = time.Since(t)
		return opStats{layers: l}, err
	}}
}

// thawOp freezes the registered instance to a snapshot file and
// re-registers the instance from it. The file is removed once mapped; the
// mapping keeps its bytes.
func thawOp(in *instance[ukc.Vec], dir string) op {
	path := filepath.Join(dir, in.name+serve.SnapshotExt)
	return op{kind: "thaw", serve: func(ctx context.Context, s *servers) (opStats, error) {
		var l writeLayers
		defer os.Remove(path)
		c, ok := s.eu.Get(in.name)
		if !ok {
			return opStats{}, fmt.Errorf("%s not registered", in.name)
		}
		t := time.Now()
		_, err := store.Write(ctx, path, c)
		l.freeze = time.Since(t)
		if err != nil {
			return opStats{layers: l}, err
		}
		t = time.Now()
		err = reregister(s, in.name, func() error { return s.eu.RegisterSnapshot(ctx, in.name, path) })
		l.open = time.Since(t)
		return opStats{layers: l}, err
	}}
}

// reregister replaces name's registration with the one register makes.
func reregister(s *servers, name string, register func() error) error {
	if !s.eu.Unregister(name) {
		return fmt.Errorf("%s not registered", name)
	}
	return register()
}
