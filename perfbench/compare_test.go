package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

var testSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.15},
}

// synthRuns draws n result lines around the given medians with a relative
// jitter of ±noise, scaling the named metric by slowdown.
func synthRuns(rng *rand.Rand, n int, noise float64, slow string, slowdown float64) []resultLine {
	centers := map[string]float64{"setup_s": 0.4, "throughput_ops_s": 900, "latency_p50_ms": 1.1, "cpu_ms_per_op": 1.9}
	var out []resultLine
	for i := 0; i < n; i++ {
		var line resultLine
		raw := `{"correct":true,"attempted":1,"failed":0,"metrics":{`
		first := true
		for name, c := range centers {
			v := c * (1 + noise*(2*rng.Float64()-1))
			if name == slow {
				if name == "throughput_ops_s" {
					v /= slowdown
				} else {
					v *= slowdown
				}
			}
			if !first {
				raw += ","
			}
			first = false
			b, _ := json.Marshal(map[string]any{"value": v, "unit": "x"})
			raw += `"` + name + `":` + string(b)
		}
		raw += "}}"
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			panic(err)
		}
		out = append(out, line)
	}
	return out
}

func states(vs []verdict) map[string]string {
	out := map[string]string{}
	for _, v := range vs {
		out[v.metric] = v.state
	}
	return out
}

// TestCompareSameCodePasses: two draws from one distribution never regress.
// A false "improved" needs 9 of 10 pair wins by chance (about 1% per
// metric), so it may occur but must stay rare.
func TestCompareSameCodePasses(t *testing.T) {
	improved, trials := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base, cand := synthRuns(rng, 10, 0.04, "", 1), synthRuns(rng, 10, 0.04, "", 1)
		for m, s := range states(compareRuns(testSpecs, base, cand)) {
			trials++
			switch s {
			case "unchanged":
			case "improved":
				improved++
			default:
				t.Errorf("seed %d: same-code pair judged %s on %s", seed, s, m)
			}
		}
	}
	if improved*20 > trials {
		t.Errorf("%d of %d same-code comparisons judged improved", improved, trials)
	}
}

func TestCompareFlagsInjectedSlowdownOnly(t *testing.T) {
	for _, slow := range []string{"latency_p50_ms", "throughput_ops_s", "setup_s"} {
		rng := rand.New(rand.NewSource(7))
		base, cand := synthRuns(rng, 10, 0.04, "", 1), synthRuns(rng, 10, 0.04, slow, 2)
		for m, s := range states(compareRuns(testSpecs, base, cand)) {
			want := "unchanged"
			if m == slow {
				want = "regressed"
			}
			if s != want {
				t.Errorf("2x slowdown on %s: %s judged %s, want %s", slow, m, s, want)
			}
		}
	}
}

func TestCompareImprovementAndUnresolved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := synthRuns(rng, 10, 0.04, "", 1)
	faster := synthRuns(rng, 10, 0.04, "latency_p50_ms", 0.5)
	if s := states(compareRuns(testSpecs, base, faster))["latency_p50_ms"]; s != "improved" {
		t.Errorf("halved latency judged %s, want improved", s)
	}
	noisy := synthRuns(rng, 10, 0.6, "", 1)
	quiet := synthRuns(rng, 10, 0.04, "", 1)
	if s := states(compareRuns(testSpecs, noisy, quiet))["cpu_ms_per_op"]; s != "unresolved" {
		t.Errorf("base spread beyond the bound judged %s, want unresolved", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values of statistics.quantiles(xs, n=4), including its extrapolation
	// for very short inputs.
	for _, c := range []struct{ xs, want []float64 }{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, []float64{1, 3, 4.5}},
		{[]float64{2, 1}, []float64{0.75, 1.5, 2.25}},
	} {
		in := append([]float64(nil), c.xs...)
		q1, q2, q3 := quartiles(in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("quartiles reordered its input to %v", in)
		}
	}
}

func TestReadResultsSkipsReportLines(t *testing.T) {
	in := "env {}\nlayer table\n" + `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}` + "\n"
	got, err := readResults(strings.NewReader(in))
	if err != nil || len(got) != 1 || got[0].Metrics["setup_s"].Value != 0.5 {
		t.Fatalf("readResults = %+v, %v", got, err)
	}
}

// TestBenchmarkSpecMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
}

// TestEndToEndReportsEveryMetric runs endToEnd on a synthetic loop and
// checks that it reports exactly the end-to-end metric set, finite.
func TestEndToEndReportsEveryMetric(t *testing.T) {
	w := &workload{pool: []op{{kind: "solve", ratio: 1.5}, {kind: "assign"}}, perms: [][]int{{0, 1}, {1, 0}}, tail: tailQ}
	var res loopResult
	start := time.Now()
	for r := 0; r < 4; r++ {
		for i := 0; i < 2; i++ {
			seq := 2*r + i
			res.samples = append(res.samples, sample{seq: seq, start: start, kind: w.at(seq).kind, wall: time.Duration(1+seq) * time.Millisecond})
		}
		res.rounds = append(res.rounds, round{end: start, dur: 10 * time.Millisecond, cpu: 0.015, steal: float64(r) / 1000})
	}
	setups := []round{{dur: time.Second, cpu: 0.8}, {dur: time.Second, cpu: 0.9}}
	var r report
	if err := endToEnd(&r, w, res, setups, 42); err != nil {
		t.Fatal(err)
	}
	if len(r.metrics) != len(endToEndMetrics) {
		t.Fatalf("reported %d metrics, want %d", len(r.metrics), len(endToEndMetrics))
	}
	for i, m := range r.metrics {
		if m.name != endToEndMetrics[i].name || m.unit != endToEndMetrics[i].unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("metric %d = %+v, want %s (%s) with a finite value", i, m, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	got := map[string]float64{}
	for _, m := range r.metrics {
		got[m.name] = m.value
	}
	// The two calm rounds hold 4 ops in 20 ms and 30 ms of CPU.
	for name, want := range map[string]float64{"setup_s": 0.85, "throughput_ops_s": 200, "cpu_ms_per_op": 7.5, "peak_rss_mb": 42, "ecost_ratio": 1.5} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}
