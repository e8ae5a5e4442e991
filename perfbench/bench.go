package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"
)

// Measurement parameters shared by every workload.
const (
	// workers is each serving layer's worker count per shard: the
	// machine's two CPUs. A workload runs at most this many closed-loop
	// clients, so no request waits for a worker and latency is not measured
	// on a queueing boundary.
	workers = 2
	// A run pays the set-up at least minSetups times and for at least
	// minSetupTime; setup_s is the median of their CPU times.
	minSetups    = 5
	minSetupTime = 2 * time.Second
	// tailQ is the default tail percentile: the highest with at least ten
	// samples beyond it that repeats from run to run on a 2-vCPU VM whose
	// steal time comes in waves. Under a wave the hypervisor stalls the
	// requests in flight for whole scheduling slices; p90 then moves by a
	// quarter while p75 holds.
	tailQ = 0.75
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ukserver string // gateway binary
	dir      string // scratch directory inside the checkout
}

// workload is a seeded pool of distinct operations and the order a run
// issues them in. One round is one pass over the pool in a fresh seeded
// permutation, so every round does the same work.
type workload struct {
	pool    []op
	perms   [][]int
	warm    []int   // pool indices the set-up runs once: one per (instance, kind)
	clients int     // closed-loop clients, at most workers
	tail    float64 // latency_tail_ms percentile
}

func newWorkload(rng *rand.Rand, clients int, pool []op, warm []int) *workload {
	w := &workload{pool: pool, warm: warm, clients: clients, tail: tailQ}
	for r := 0; r < 512; r++ {
		w.perms = append(w.perms, rng.Perm(len(pool)))
	}
	return w
}

// index is the pool index of the op at position seq of the sequence.
func (w *workload) index(seq int) int {
	return w.perms[(seq/len(w.pool))%len(w.perms)][seq%len(w.pool)]
}

func (w *workload) at(seq int) op { return w.pool[w.index(seq)] }

// warmSet picks, for every (instance, kind) pair of the pool, its first op.
func warmSet(pool []op, instanceOf []string) []int {
	seen := map[string]bool{}
	var out []int
	for i, o := range pool {
		key := instanceOf[i] + "/" + o.kind
		if !seen[key] {
			seen[key] = true
			out = append(out, i)
		}
	}
	return out
}

// report is what a run prints.
type report struct {
	attempted, failed int
	errs              []error
	metrics           []metric
	table             []layerRow
	notes             []string
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) count(res loopResult) {
	r.attempted += len(res.samples)
	r.failed += res.failed
	r.errs = append(r.errs, res.errs...)
}

// endToEndMetrics are the gated metrics of an untraced run, in
// BENCHMARK.json order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"ecost_ratio", "ratio"},
}

// endToEnd fills the gated metrics from one untraced measured loop and the
// set-ups before it. Throughput, CPU and latency come from the calm rounds
// (see calmRounds). setup_s is the median CPU time of the set-ups: a
// set-up lasts a second or less, too short for a selection of calm rounds
// to step around a wave of steal, and the kernel keeps steal out of a
// process's CPU time, which therefore moves far less than wall time when
// other guests take the machine.
func endToEnd(r *report, w *workload, res loopResult, setupRuns []round, rssMB float64) error {
	if len(res.rounds) == 0 {
		return fmt.Errorf("no complete round of %d ops in the measured window", len(w.pool))
	}
	calm := calmRounds(res.rounds)
	var calmS, calmCPU float64
	for _, i := range calm {
		calmS += res.rounds[i].dur.Seconds()
		calmCPU += res.rounds[i].cpu
	}
	calmOps := float64(len(calm) * len(w.pool))
	var walls, steal []float64
	for _, rd := range res.rounds {
		steal = append(steal, stealShare(rd))
	}
	byKind := map[string][]float64{}
	for _, s := range res.samples {
		if slices.Contains(calm, s.seq/len(w.pool)) {
			walls = append(walls, ms(s.wall))
			byKind[s.kind] = append(byKind[s.kind], ms(s.wall))
		}
	}
	kinds := "latency p50 by kind:"
	for _, k := range slices.Sorted(maps.Keys(byKind)) {
		kinds += fmt.Sprintf(" %s %.3f ms (%d ops)", k, median(byKind[k]), len(byKind[k]))
	}
	r.notes = append(r.notes, kinds, fmt.Sprintf("latency percentiles: p75 %.4f p90 %.4f p95 %.4f ms",
		quantile(walls, 0.75), quantile(walls, 0.90), quantile(walls, 0.95)))
	var setupCPU, setupWall []float64
	for _, rd := range setupRuns {
		setupCPU = append(setupCPU, rd.cpu)
		setupWall = append(setupWall, rd.dur.Seconds())
	}
	r.notes = append(r.notes,
		fmt.Sprintf("measured %d rounds of %d ops; the %d calmest (steal share at most %.2f%%, run median %.2f%%) give throughput, CPU and latency",
			len(res.rounds), len(w.pool), len(calm), 100*stealShare(res.rounds[calm[len(calm)-1]]), 100*median(steal)),
		fmt.Sprintf("latency_tail_ms is p%.0f of %d ops, %d beyond it", w.tail*100, len(walls), int(float64(len(walls))*(1-w.tail))),
		fmt.Sprintf("setup_s is the median CPU time of %d set-ups: %s s; their wall times: %s s", len(setupRuns), fmtFloats(setupCPU), fmtFloats(setupWall)))

	vals := map[string]float64{
		"setup_s":          median(setupCPU),
		"throughput_ops_s": calmOps / calmS,
		"latency_p50_ms":   quantile(walls, 0.5),
		"latency_tail_ms":  quantile(walls, w.tail),
		"cpu_ms_per_op":    calmCPU * 1e3 / calmOps,
		"peak_rss_mb":      rssMB,
		"ecost_ratio":      ecostRatio(w, res),
	}
	if len(vals) != len(endToEndMetrics) {
		return fmt.Errorf("%d end-to-end values for %d metrics", len(vals), len(endToEndMetrics))
	}
	for _, m := range endToEndMetrics {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("no value for end-to-end metric %s", m.name)
		}
		r.add(m.name, m.unit, v)
	}
	return nil
}

// stealShare is the share of the machine's CPU time the hypervisor gave to
// other guests during the round.
func stealShare(rd round) float64 {
	return rd.steal / (rd.dur.Seconds() * float64(runtime.NumCPU()))
}

// calmSteal is the steal share below which a round counts as calm however
// the rest of the run went: a single 10 ms steal tick already exceeds it in
// any round shorter than half a second.
const calmSteal = 0.01

// calmRounds returns, in order of increasing steal share, the rounds whose
// steal share is at most the run's median or below calmSteal. Steal
// inflates a round's wall time without saying anything about the program,
// and it comes and goes within a run; every round does the same work, so
// the calmer rounds measure the program with the least interference. Where
// steal leaves most rounds alone, they are all used.
func calmRounds(rounds []round) []int {
	idx := make([]int, len(rounds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return stealShare(rounds[idx[a]]) < stealShare(rounds[idx[b]]) })
	n := (len(idx) + 1) / 2
	for n < len(idx) && stealShare(rounds[idx[n]]) < calmSteal {
		n++
	}
	return idx[:n]
}

// ecostRatio is the geometric mean, over the distinct solving ops that were
// served and checked in the run, of returned E-cost ÷ reference E-cost.
// The pool is fixed by the seed and every run serves all of it, so the
// value repeats exactly for a seed.
func ecostRatio(w *workload, res loopResult) float64 {
	seen := map[int]bool{}
	var logs float64
	for _, s := range res.samples {
		i := w.index(s.seq)
		if w.pool[i].ratio > 0 && s.err == nil && !seen[i] {
			seen[i] = true
			logs += math.Log(w.pool[i].ratio)
		}
	}
	return math.Exp(logs / float64(len(seen)))
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// phase is one measured loop of a traced run, with the spans recorded
// during it and the runtime counters it moved.
type phase struct {
	res   loopResult
	spans []span
	ops   int
}

// rounds splits the phase into its complete rounds by start time: an op
// and the spans it emits land in the round the op started in.
func (p phase) rounds() []phase {
	out := make([]phase, len(p.res.rounds))
	round := func(t time.Time) int {
		return sort.Search(len(p.res.rounds), func(i int) bool { return p.res.rounds[i].end.After(t) })
	}
	for _, s := range p.res.samples {
		if r := round(s.start); r < len(out) {
			out[r].res.samples = append(out[r].res.samples, s)
		}
	}
	for _, sp := range p.spans {
		if r := round(sp.start); r < len(out) {
			out[r].spans = append(out[r].spans, sp)
		}
	}
	for i := range out {
		out[i].ops = len(out[i].res.samples)
	}
	return out
}

// layerRow is one line of the layer table: the metric over the whole traced
// phase, and its median and IQR over the phase's rounds.
type layerRow struct {
	name, unit   string
	value        float64
	med, spread  float64
	perRoundRows bool
}

// rowFn computes one per-layer metric from a phase.
type rowFn func(p phase) float64

func layer(name, unit string, p phase, f rowFn) layerRow {
	row := layerRow{name: name, unit: unit, value: f(p)}
	var vals []float64
	for _, rp := range p.rounds() {
		if rp.ops > 0 {
			vals = append(vals, f(rp))
		}
	}
	if len(vals) > 0 {
		row.med, row.spread, row.perRoundRows = median(vals), iqr(vals), true
	}
	return row
}

// fixed is a row measured once per run (set-up timings, phase-level
// counters), with no per-round spread.
func fixed(name, unit string, v float64) layerRow {
	return layerRow{name: name, unit: unit, value: v}
}

// Row helpers over a phase's samples and spans.

func served(p phase, f func(s sample) float64) []float64 {
	var out []float64
	for _, s := range p.res.samples {
		if s.st.served {
			out = append(out, f(s))
		}
	}
	return out
}

func queueMS(s sample) float64    { return ms(s.st.queue) }
func execMS(s sample) float64     { return ms(s.st.exec) }
func outsideMS(s sample) float64  { return ms(s.wall - s.st.queue - s.st.exec) }
func clientSelf(s sample) float64 { return ms(s.wall - s.st.http.transport) }

func perOp(p phase, f func(s sample) float64) float64 {
	var sum float64
	for _, s := range p.res.samples {
		sum += f(s)
	}
	return sum / float64(p.ops)
}

// spanMS is the self time of the matching spans, in ms per op.
func spanMS(p phase, match func(name string) bool) float64 {
	var sum time.Duration
	for _, sp := range p.spans {
		if match(sp.name) {
			sum += sp.self
		}
	}
	return ms(sum) / float64(p.ops)
}

func spanAttr(p phase, name, key string) float64 {
	var sum int64
	for _, sp := range p.spans {
		if sp.name == name {
			sum += sp.attr(key)
		}
	}
	return float64(sum)
}

// named matches span names against names; a trailing '*' matches a prefix.
func named(names ...string) func(string) bool {
	return func(n string) bool {
		for _, x := range names {
			if p, ok := strings.CutSuffix(x, "*"); n == x || ok && strings.HasPrefix(n, p) {
				return true
			}
		}
		return false
	}
}

// coreRows are the internal/core span rows, self time per op.
var coreRows = []struct {
	name  string
	match func(string) bool
}{
	{"core.surrogate_build_ms", named("surrogate.build.*")},
	{"core.evaluator_build_ms", named("evaluator.build")},
	{"core.candindex_build_ms", named("candindex.build", "candgraph.build")},
	{"core.solve_surrogates_ms", named("solve.surrogates")},
	{"core.solve_certain_ms", named("solve.certain")},
	{"core.solve_assign_ms", named("solve.assign")},
	{"core.solve_ecost_ms", named("solve.ecost")},
	{"core.sweep_ms", named("sweep")},
	{"core.ls_descent_ms", named("ls.descent")},
	{"core.ls_iter_ms", named("ls.iter")},
}

// coreTable adds the core span rows, the local-search counts and the
// unattributed remainder: solver execution (serve's exec) and catalog
// write time that neither a core span nor a timed write layer covers.
func coreTable(p phase) []layerRow {
	var rows []layerRow
	for _, c := range coreRows {
		rows = append(rows, layer(c.name, "ms", p, func(p phase) float64 { return spanMS(p, c.match) }))
	}
	rows = append(rows,
		layer("core.ls_iters_per_op", "count", p, func(p phase) float64 { return spanAttr(p, "ls.descent", "iters") / float64(p.ops) }),
		layer("core.ls_swaps_evaluated_per_op", "count", p, func(p phase) float64 { return spanAttr(p, "ls.descent", "swaps") / float64(p.ops) }),
		fixed("core.prune_rate", "ratio", ratio(spanAttr(p, "ls.prune", "pruned"), spanAttr(p, "ls.prune", "scanned"))),
		layer("solver.unspanned_ms", "ms", p, func(p phase) float64 { return perOp(p, unspannedMS) }),
		layer("unattributed_ms", "ms", p, unattributed),
	)
	return rows
}

// unspanned reports op kinds whose ukc.Solver call emits no core span on
// warm caches (Assign, Ecost, EcostUnassigned): their whole execution is
// the solver layer itself, timed from outside by serve's exec stat.
func unspanned(s sample) bool { return s.kind == "assign" || s.kind == "ecost" }

func unspannedMS(s sample) float64 {
	if s.st.served && unspanned(s) {
		return ms(s.st.exec)
	}
	return 0
}

func unattributed(p phase) float64 {
	covered := perOp(p, func(s sample) float64 {
		switch {
		case s.st.served && unspanned(s):
			return ms(s.wall)
		case s.st.served:
			return ms(s.wall - s.st.exec)
		}
		return ms(s.st.layers.total())
	})
	return perOp(p, wallMS) - covered - spanMS(p, anyCore)
}

func anyCore(name string) bool {
	for _, c := range coreRows {
		if c.match(name) {
			return true
		}
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters reads the Go runtime's allocation and CPU accounting.
type runtimeCounters struct{ alloc, gcCPU, totalCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return math.NaN()
	}
	return runtimeCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// runtimeRows are the Go runtime rows of the benchmark process over an
// untraced phase.
func runtimeRows(before, after runtimeCounters, ops int) []layerRow {
	return []layerRow{
		fixed("runtime.alloc_bytes_per_op", "bytes", (after.alloc-before.alloc)/float64(ops)),
		fixed("runtime.gc_cpu_share", "ratio", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)),
	}
}

// repeatSetup runs setup at least minSetups times and for at least
// minSetupTime, releasing every result but the last, and reports each
// set-up as a round: its wall time, its CPU time — the benchmark process's
// plus childCPU of the result, for a process the set-up started — and the
// steal during it.
func repeatSetup[T any](setup func() (T, error), release func(T), childCPU func(T) float64) (T, []round, error) {
	var last T
	var runs []round
	var total time.Duration
	for len(runs) < minSetups || total < minSetupTime {
		if len(runs) > 0 {
			release(last)
		}
		t0, c0, s0 := time.Now(), selfCPU(), stealSeconds()
		v, err := setup()
		if err != nil {
			return v, nil, err
		}
		rd := round{dur: time.Since(t0), cpu: selfCPU() - c0 + childCPU(v), steal: stealSeconds() - s0}
		last, total, runs = v, total+rd.dur, append(runs, rd)
	}
	return last, runs, nil
}

// timeIt runs f and returns its wall time in seconds.
func timeIt(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

func runOps(ctx context.Context, w *workload, idx []int, run func(ctx context.Context, o op) (opStats, error)) error {
	for _, i := range idx {
		if _, err := run(ctx, w.pool[i]); err != nil {
			return fmt.Errorf("set-up %s: %w", w.pool[i].kind, err)
		}
	}
	return nil
}

// warmUp runs the start of the sequence untimed, after the set-up has
// built every cache, so connections are open and the heap has grown
// before the measured loop.
func warmUp(ctx context.Context, w *workload, run func(context.Context, int) (string, opStats, error), cpu func() float64) {
	n := min(len(w.pool), 50)
	closedLoop(ctx, loopConfig{clients: w.clients, maxOps: n, roundOps: n, run: run, cpu: cpu})
}
