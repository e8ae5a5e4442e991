// Command perfbench is the repository's benchmark: two seeded workloads
// over the uncertain k-center stack, each driven by closed-loop clients
// from this one process, with every answer checked against a direct
// ukc.Solver call.
//
//	perfbench --workload gateway-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is the JSON result with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run, and the lines before it hold the layer table. Every run
// first prints an environment record (source revision, Go version, CPUs,
// steal time and load average over the run).
//
//	perfbench compare -spec BENCHMARK.json base.jsonl new.jsonl
//
// compares two sets of result lines metric by metric (see compare.go).
//
// run.sh builds this command and the ukserver gateway from the checkout
// and runs it; see WORKLOADS.md for what each workload measures.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// perLayer is the fixed per-layer metric set a traced run reports, in
// BENCHMARK.json order. A layer a workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"setup.total_s", "s"},
	{"setup.read_compiled_ms", "ms"},
	{"setup.core_build_ms", "ms"},
	{"ukserver.register_ms", "ms"},
	{"client.attempts_per_op", "count"},
	{"client.self_ms", "ms"},
	{"ukserver.overhead_p50_ms", "ms"},
	{"ukserver.overhead_tail_ms", "ms"},
	{"ukserver.response_bytes_per_op", "bytes"},
	{"serve.queue_p50_ms", "ms"},
	{"serve.queue_tail_ms", "ms"},
	{"serve.exec_p50_ms", "ms"},
	{"serve.overhead_us", "us"},
	{"serve.hit_rate", "ratio"},
	{"serve.evictions_per_op", "count"},
	{"serve.rejected_share", "ratio"},
	{"serve.register_ms", "ms"},
	{"core.surrogate_build_ms", "ms"},
	{"core.evaluator_build_ms", "ms"},
	{"core.candindex_build_ms", "ms"},
	{"core.solve_surrogates_ms", "ms"},
	{"core.solve_certain_ms", "ms"},
	{"core.solve_assign_ms", "ms"},
	{"core.solve_ecost_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"core.ls_descent_ms", "ms"},
	{"core.ls_iter_ms", "ms"},
	{"core.ls_iters_per_op", "count"},
	{"core.ls_swaps_evaluated_per_op", "count"},
	{"core.prune_rate", "ratio"},
	{"solver.unspanned_ms", "ms"},
	{"store.freeze_ms", "ms"},
	{"store.open_ms", "ms"},
	{"dataio.read_compiled_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_share", "ratio"},
	{"unattributed_ms", "ms"},
	{"attributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"gap.direct_solve_p50_ms", "ms"},
	{"gap.serve_solve_p50_ms", "ms"},
	{"gap.http_solve_p50_ms", "ms"},
}

var workloads = map[string]func(context.Context, runConfig, *rand.Rand, *report) error{
	"gateway-mix":   runGatewayMix,
	"catalog-churn": runCatalogChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "gateway-mix or catalog-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.ukserver, "ukserver", "", "ukserver binary (gateway-mix)")
	flag.StringVar(&cfg.dir, "dir", "", "scratch directory")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, out io.Writer) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.dir == "" || cfg.workload == "gateway-mix" && cfg.ukserver == "" {
		return fmt.Errorf("need --seconds > 0, --dir and (for gateway-mix) --ukserver")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	start, steal0, load0 := time.Now(), stealSeconds(), loadavg()
	rep := &report{}
	if err := wl(context.Background(), cfg, rand.New(rand.NewSource(cfg.seed)), rep); err != nil {
		return err
	}
	env := map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"traced":         cfg.trace,
		"git_rev":        gitRev(),
		"source_sha256":  sourceDigest("."),
		"go":             runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"wall_s":         time.Since(start).Seconds(),
		"steal_s":        stealSeconds() - steal0,
		"loadavg_start":  load0,
		"loadavg_end":    loadavg(),
		"failure_sample": errStrings(rep.errs),
	}
	raw, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", raw)
	for _, n := range rep.notes {
		fmt.Fprintln(out, "note:", n)
	}

	metrics := map[string]map[string]any{}
	if cfg.trace {
		printTable(out, cfg, rep.table)
		byName := map[string]float64{}
		for _, r := range rep.table {
			byName[r.name] = r.value
		}
		for _, m := range perLayer {
			v := byName[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	} else {
		for _, m := range rep.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return fmt.Errorf("metric %s is %v", m.name, m.value)
			}
			metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	raw, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0 && rep.attempted > 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", raw)
	return nil
}

func printTable(out io.Writer, cfg runConfig, rows []layerRow) {
	fmt.Fprintf(out, "layer table: %s, seed %d (value over the traced phases; median and IQR over rounds)\n", cfg.workload, cfg.seed)
	fmt.Fprintf(out, "  %-32s %12s %12s %12s  %s\n", "metric", "value", "median", "IQR", "unit")
	for _, r := range rows {
		med, spread := "-", "-"
		if r.perRoundRows {
			med, spread = fmt.Sprintf("%.4g", r.med), fmt.Sprintf("%.4g", r.spread)
		}
		fmt.Fprintf(out, "  %-32s %12.4g %12s %12s  %s\n", r.name, r.value, med, spread, r.unit)
	}
}

func errStrings(errs []error) []string {
	out := []string{}
	for _, e := range errs {
		out = append(out, e.Error())
	}
	return out
}

// gitRev is the checkout's commit, when it is a git work tree. git may not
// look above the checkout: an enclosing repository is not the code under
// test.
func gitRev() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	raw, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(raw))
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the code under test where no git revision is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
