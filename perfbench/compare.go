package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// The comparator judges two sets of runs of the same benchmark — a base
// (the parent commit) and a candidate — metric by metric, with the rules
// the benchmark's bounds are written for:
//
//   - regressed: the candidate's median is worse than the base's by more
//     than the metric's bound;
//   - unresolved: not regressed, but the base's own spread (IQR ÷ median)
//     is wider than the bound, so "unchanged" cannot be claimed — unless
//     every candidate run beats every base run, which is improved;
//   - improved: the candidate wins at least nine of ten run pairs (ties
//     count for neither) and the medians differ by more than the base IQR;
//   - unchanged otherwise.

// resultLine is one run's final output line.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type verdict struct {
	metric             string
	baseMed, candMed   float64
	worse              float64 // relative worsening of the median (negative = better)
	spread             float64 // base IQR ÷ base median
	wins, pairs        int
	state              string
	baseRuns, candRuns int
}

// quartiles are the quartiles of xs, which it leaves in run order.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	return quantile(d, 0.25), quantile(d, 0.5), quantile(d, 0.75)
}

func compareRuns(specs []metricSpec, base, cand []resultLine) []verdict {
	var out []verdict
	for _, m := range specs {
		b, c := values(base, m.Name), values(cand, m.Name)
		v := verdict{metric: m.Name, baseRuns: len(b), candRuns: len(c)}
		if len(b) == 0 || len(c) == 0 {
			v.state = "missing"
			out = append(out, v)
			continue
		}
		var bq1, bq3 float64
		bq1, v.baseMed, bq3 = quartiles(b)
		_, v.candMed, _ = quartiles(c)
		v.spread = (bq3 - bq1) / v.baseMed
		sign := 1.0
		if m.Better == "higher" {
			sign = -1
		}
		v.worse = sign * (v.candMed - v.baseMed) / v.baseMed
		better := func(x, y float64) bool { return sign*(x-y) < 0 }
		for i := 0; i < len(b) && i < len(c); i++ {
			v.pairs++
			if better(c[i], b[i]) {
				v.wins++
			}
		}
		allBetter := true
		for _, x := range c {
			for _, y := range b {
				allBetter = allBetter && better(x, y)
			}
		}
		switch {
		case v.worse > m.Bound:
			v.state = "regressed"
		case v.spread > m.Bound:
			v.state = "unresolved"
			if allBetter {
				v.state = "improved"
			}
		case v.pairs > 0 && 10*v.wins >= 9*v.pairs && -v.worse*v.baseMed > bq3-bq1:
			v.state = "improved"
		default:
			v.state = "unchanged"
		}
		out = append(out, v)
	}
	return out
}

func values(runs []resultLine, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// readResults collects the result lines of a file holding the output of
// one or more runs (other lines are skipped).
func readResults(r io.Reader) ([]resultLine, error) {
	var out []resultLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res resultLine
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the end-to-end bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] base.jsonl candidate.jsonl")
		return 2
	}
	var spec benchSpec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var sets [2][]resultLine
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		sets[i], err = readResults(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(out, "%-20s %12s %12s %9s %9s %7s  %s\n", "metric", "base", "candidate", "worse", "spread", "wins", "verdict")
	for _, v := range compareRuns(spec.EndToEnd, sets[0], sets[1]) {
		fmt.Fprintf(out, "%-20s %12.5g %12.5g %+8.1f%% %8.1f%% %3d/%-3d  %s\n",
			v.metric, v.baseMed, v.candMed, 100*v.worse, 100*v.spread, v.wins, v.pairs, v.state)
		if v.state == "regressed" || v.state == "missing" {
			code = 1
		}
	}
	return code
}
