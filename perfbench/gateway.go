package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	ukc "repro"
	"repro/client"
	"repro/obs"
	"repro/serve"
)

// gatewayCatalog is gateway-mix's fixed catalog: Euclidean and
// finite-metric instances of n≈150–300 points with z=4 locations. The
// finite ones live on small graphs (40–60 vertices), which keeps their
// sweeps — k × vertices E-costs — within a few solves' time.
type gatewayCatalog struct {
	eu  []*instance[ukc.Vec]
	fin []*instance[int]
}

func buildGatewayMix(ctx context.Context, rng *rand.Rand) (*gatewayCatalog, *workload, error) {
	// Sizes, kinds, k and the instance each op targets are fixed; the seed
	// draws the geometry, the probabilities and the center sets, so runs
	// with different seeds do the same amount of work.
	cat := &gatewayCatalog{}
	for i := 0; i < 6; i++ {
		doc, err := euclideanDoc(rng, 150+30*i, 4)
		if err != nil {
			return nil, nil, err
		}
		in, err := loadInstance(ctx, fmt.Sprintf("eu%d", i), doc, 4, readEuclidean)
		if err != nil {
			return nil, nil, err
		}
		cat.eu = append(cat.eu, in)
	}
	for i := 0; i < 3; i++ {
		doc, err := finiteDoc(rng, 40+10*i, 150+50*i, 4)
		if err != nil {
			return nil, nil, err
		}
		in, err := loadInstance(ctx, fmt.Sprintf("fin%d", i), doc, 4, readFinite)
		if err != nil {
			return nil, nil, err
		}
		cat.fin = append(cat.fin, in)
	}
	// The mix per 200 ops: 95 solves, 38 assigns, 57 E-costs (one third
	// assigned) and 10 sweeps (finite instances only). A sweep takes about
	// ten solves; at 5% of the ops the sweeps sit well above the p90 tail
	// instead of on it.
	var pool []op
	var names []string
	for i := 0; i < 200; i++ {
		k := 3 + (i/10)%4
		var o op
		var err error
		if i < 190 && i%3 != 2 {
			in := cat.eu[(i/3)%len(cat.eu)]
			o, err = gatewayOp(ctx, rng, in, i, k)
			names = append(names, in.name)
		} else {
			in := cat.fin[(i/3)%len(cat.fin)]
			o, err = gatewayOp(ctx, rng, in, i, k)
			names = append(names, in.name)
		}
		if err != nil {
			return nil, nil, err
		}
		pool = append(pool, o)
	}
	return cat, newWorkload(rng, workers, pool, warmSet(pool, names)), nil
}

// gatewayOp builds op i of the mix on instance in: the kind is fixed by i's
// position so the mix proportions are the same for every seed.
func gatewayOp[P any](ctx context.Context, rng *rand.Rand, in *instance[P], i, k int) (op, error) {
	centers := randomCenters(rng, in.inst, k)
	switch j := i % 10; {
	case i >= 190:
		return sweepOp(ctx, in, centers)
	case j < 5:
		return solveOp(ctx, in, k)
	case j < 7:
		return assignOp(ctx, in, centers)
	case j < 8:
		assign, err := ukc.NewSolver[P]().Assign(ctx, in.inst, centers)
		if err != nil {
			return op{}, err
		}
		return ecostOp(ctx, in, centers, assign)
	default:
		return ecostOp(ctx, in, centers, nil)
	}
}

// gatewayProc is one spawned ukserver.
type gatewayProc struct {
	cmd    *exec.Cmd
	base   string
	tr     *http.Transport
	client *client.Client
	exited chan struct{}
}

// startGateway spawns ukserver on a free loopback port and waits until it
// answers. One shard with two workers per instance kind serves the two
// clients without queueing; everything else runs on the gateway defaults.
func startGateway(bin, logPath string, counted bool) (*gatewayProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-shards", "1", "-workers", strconv.Itoa(workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The gateway must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ukserver: %w", err)
	}
	g := &gatewayProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(g.exited)
	}()
	g.tr = &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true}
	var rt http.RoundTripper = g.tr
	if counted {
		rt = countingTransport{g.tr}
	}
	g.client, err = client.New(g.base, client.WithHTTPClient(&http.Client{Transport: rt}))
	if err != nil {
		g.stop()
		return nil, err
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		select {
		case <-g.exited:
			return nil, fmt.Errorf("ukserver exited during start-up (log: %s)", logPath)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := g.client.List(ctx)
		cancel()
		if err == nil {
			return g, nil
		}
		if time.Now().After(deadline) {
			g.stop()
			return nil, fmt.Errorf("ukserver not ready after 30s: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (g *gatewayProc) pid() int { return g.cmd.Process.Pid }

// stop drains the gateway with SIGTERM, kills it if it lingers, and waits
// for it to exit.
func (g *gatewayProc) stop() {
	g.tr.CloseIdleConnections()
	_ = g.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-g.exited:
	case <-time.After(10 * time.Second):
		_ = g.cmd.Process.Kill()
		<-g.exited
	}
}

// gatewayTotals are the serve counters the gateway exposes on /v1/metrics,
// summed over both instance kinds.
type gatewayTotals struct {
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	Evictions uint64 `json:"evictions"`
}

func (g *gatewayProc) totals(ctx context.Context) (gatewayTotals, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/v1/metrics", nil)
	if err != nil {
		return gatewayTotals{}, err
	}
	resp, err := g.tr.RoundTrip(req)
	if err != nil {
		return gatewayTotals{}, err
	}
	defer resp.Body.Close()
	var body map[string]struct {
		Shards []gatewayTotals `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return gatewayTotals{}, err
	}
	var t gatewayTotals
	for _, kind := range body {
		if len(kind.Shards) == 0 {
			return t, errors.New("gateway metrics without shards")
		}
		last := kind.Shards[len(kind.Shards)-1] // the totals row
		t.Admitted += last.Admitted
		t.Rejected += last.Rejected
		t.Evictions += last.Evictions
	}
	return t, nil
}

// gatewaySetup is what a user pays before the first answers: spawning the
// gateway, registering the catalog over HTTP, and one request per
// (instance, kind), which builds the surrogate and evaluator caches.
func gatewaySetup(ctx context.Context, cfg runConfig, cat *gatewayCatalog, w *workload, counted bool) (g *gatewayProc, registerMS []float64, err error) {
	g, err = startGateway(cfg.ukserver, filepath.Join(cfg.dir, "ukserver.log"), counted)
	if err != nil {
		return nil, nil, err
	}
	register := func(name string, doc []byte) error {
		t, err := timeIt(func() error { return g.client.Register(ctx, name, doc) })
		registerMS = append(registerMS, t*1e3)
		if err != nil {
			return fmt.Errorf("registering %s: %w", name, err)
		}
		return nil
	}
	for _, in := range cat.eu {
		if err := register(in.name, in.doc); err != nil {
			g.stop()
			return nil, nil, err
		}
	}
	for _, in := range cat.fin {
		if err := register(in.name, in.doc); err != nil {
			g.stop()
			return nil, nil, err
		}
	}
	if err := runOps(ctx, w, w.warm, func(ctx context.Context, o op) (opStats, error) { return o.http(ctx, g.client) }); err != nil {
		g.stop()
		return nil, nil, err
	}
	return g, registerMS, nil
}

func runGatewayMix(ctx context.Context, cfg runConfig, rng *rand.Rand, rep *report) error {
	cat, w, err := buildGatewayMix(ctx, rng)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceGatewayMix(ctx, cfg, cat, w, rep)
	}
	g, setupRuns, err := repeatSetup(func() (*gatewayProc, error) {
		g, _, err := gatewaySetup(ctx, cfg, cat, w, false)
		return g, err
	}, (*gatewayProc).stop, func(g *gatewayProc) float64 { return procCPU(g.pid()) })
	if err != nil {
		return err
	}
	defer g.stop()
	httpRun := func(ctx context.Context, seq int) (string, opStats, error) {
		o := w.at(seq)
		st, err := o.http(ctx, g.client)
		return o.kind, st, err
	}
	cpu := func() float64 { return selfCPU() + procCPU(g.pid()) }
	warmUp(ctx, w, httpRun, cpu)
	res := closedLoop(ctx, loopConfig{clients: w.clients, seconds: cfg.seconds, roundOps: len(w.pool), run: httpRun, cpu: cpu})
	rep.count(res)
	return endToEnd(rep, w, res, setupRuns, peakRSSMB(g.pid()))
}

// traceGatewayMix produces gateway-mix's layer table from four phases of
// equal length: HTTP through a counting transport (client, gateway and
// serve rows); an in-process replay of the same sequence untraced (runtime
// rows, and the baseline for tracing overhead) and traced (core rows); and
// the sequence as direct ukc.Solver calls (the direct/serve/HTTP gap).
func traceGatewayMix(ctx context.Context, cfg runConfig, cat *gatewayCatalog, w *workload, rep *report) error {
	secs := cfg.seconds / 4
	start := time.Now()
	g, registerMS, err := gatewaySetup(ctx, cfg, cat, w, true)
	if err != nil {
		return err
	}
	setupS := time.Since(start).Seconds()
	httpRun := func(ctx context.Context, seq int) (string, opStats, error) {
		o := w.at(seq)
		hc := &httpCount{}
		st, err := o.http(withHTTPCount(ctx, hc), g.client)
		st.http = *hc
		return o.kind, st, err
	}
	cpu := func() float64 { return selfCPU() + procCPU(g.pid()) }
	warmUp(ctx, w, httpRun, cpu)
	before, err := g.totals(ctx)
	if err != nil {
		g.stop()
		return err
	}
	a := phase{res: closedLoop(ctx, loopConfig{clients: w.clients, seconds: secs, roundOps: len(w.pool), run: httpRun, cpu: cpu})}
	after, err := g.totals(ctx)
	g.stop()
	if err != nil {
		return err
	}
	a.ops = len(a.res.samples)
	rep.count(a.res)

	// The replay's serving layers are configured like the gateway's: one
	// shard, two workers and its default flight recorder.
	rp, err := replayPhases(ctx, w, secs, func(tracer obs.Tracer) (*servers, float64, error) {
		fr := obs.NewFlightRecorder(obs.FlightConfig{Capacity: 64, Reservoir: 8, Threshold: 100 * time.Millisecond})
		return newServers(ctx, tracer, cat.eu, cat.fin, serve.WithFlightRecorder(fr))
	}, rep)
	if err != nil {
		return err
	}
	b, c := rp.b, rp.c
	directRun := func(ctx context.Context, seq int) (string, opStats, error) {
		o := w.at(seq)
		return o.kind, opStats{}, o.direct(ctx)
	}
	d := phase{res: closedLoop(ctx, loopConfig{clients: w.clients, seconds: secs, roundOps: len(w.pool), run: directRun, cpu: selfCPU})}
	d.ops = len(d.res.samples)
	rep.count(d.res)

	rows := append(rp.setupRows(setupS), fixed("ukserver.register_ms", "ms", mean(registerMS)))
	rows = append(rows,
		layer("client.attempts_per_op", "count", a, func(p phase) float64 {
			return perOp(p, func(s sample) float64 { return float64(s.st.http.roundTrips) })
		}),
		layer("client.self_ms", "ms", a, func(p phase) float64 { return perOp(p, clientSelf) }),
		layer("ukserver.overhead_p50_ms", "ms", a, func(p phase) float64 { return quantile(served(p, outsideMS), 0.5) }),
		layer("ukserver.overhead_tail_ms", "ms", a, func(p phase) float64 { return quantile(served(p, outsideMS), tailQ) }),
		layer("ukserver.response_bytes_per_op", "bytes", a, func(p phase) float64 {
			return perOp(p, func(s sample) float64 { return float64(s.st.http.bytes) })
		}),
	)
	rows = append(rows, serveRows(a, after.Rejected-before.Rejected, after.Admitted-before.Admitted, after.Evictions-before.Evictions)...)
	rows = append(rows, layer("serve.overhead_us", "us", c, func(p phase) float64 { return 1e3 * mean(served(p, outsideMS)) }))
	rows = append(rows, coreTable(c)...)
	rows = append(rows, runtimeRows(rp.rt[0], rp.rt[1], b.ops)...)
	rows = append(rows,
		fixed("attributed_share", "ratio", 1-unattributed(c)/perOp(a, wallMS)),
		fixed("trace.overhead_share", "ratio", perOp(c, wallMS)/perOp(b, wallMS)-1),
		fixed("gap.direct_solve_p50_ms", "ms", kindP50(d, "solve")),
		fixed("gap.serve_solve_p50_ms", "ms", kindP50(b, "solve")),
		fixed("gap.http_solve_p50_ms", "ms", kindP50(a, "solve")),
	)
	rep.table = rows
	return nil
}

func wallMS(s sample) float64 { return ms(s.wall) }

func kindP50(p phase, kind string) float64 {
	var xs []float64
	for _, s := range p.res.samples {
		if s.kind == kind {
			xs = append(xs, ms(s.wall))
		}
	}
	return quantile(xs, 0.5)
}

// serveRows are the serve rows from the requests' own stats and the
// server's counters over the phase.
func serveRows(p phase, rejected, admitted, evictions uint64) []layerRow {
	return []layerRow{
		layer("serve.queue_p50_ms", "ms", p, func(p phase) float64 { return quantile(served(p, queueMS), 0.5) }),
		layer("serve.queue_tail_ms", "ms", p, func(p phase) float64 { return quantile(served(p, queueMS), tailQ) }),
		layer("serve.exec_p50_ms", "ms", p, func(p phase) float64 { return quantile(served(p, execMS), 0.5) }),
		layer("serve.hit_rate", "ratio", p, func(p phase) float64 {
			return mean(served(p, func(s sample) float64 {
				if s.st.hit {
					return 1
				}
				return 0
			}))
		}),
		fixed("serve.evictions_per_op", "count", float64(evictions)/float64(p.ops)),
		fixed("serve.rejected_share", "ratio", ratio(float64(rejected), float64(rejected+admitted))),
	}
}
