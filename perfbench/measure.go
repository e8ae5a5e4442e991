package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one completed operation of a measured loop.
type sample struct {
	seq   int // position in the op sequence
	start time.Time
	kind  string
	wall  time.Duration
	st    opStats
	err   error
}

// loopConfig drives a closed loop: `clients` goroutines each issue their
// next operation only when the previous one has returned. Operations are
// taken in sequence order from a shared counter, so the sequence (not which
// client runs what) is fixed by the seed.
type loopConfig struct {
	clients  int
	seconds  float64 // stop issuing after this long; 0 = run exactly maxOps
	maxOps   int
	roundOps int                                                         // completions per round
	run      func(ctx context.Context, seq int) (string, opStats, error) // runs op seq
	cpu      func() float64                                              // CPU seconds consumed so far by the processes under test
}

// round is one stretch of roundOps completions.
type round struct {
	end   time.Time
	dur   time.Duration
	cpu   float64 // CPU seconds
	steal float64 // machine-wide steal seconds
}

type loopResult struct {
	samples []sample
	rounds  []round
	failed  int
	errs    []error // first few distinct failures, for the report
}

func closedLoop(ctx context.Context, cfg loopConfig) loopResult {
	type mark struct {
		t          time.Time
		cpu, steal float64
	}
	var (
		next, done atomic.Int64
		mu         sync.Mutex
		marks      = map[int64]mark{}
		wg         sync.WaitGroup
		per        = make([][]sample, cfg.clients)
	)
	start := time.Now()
	marks[0] = mark{start, cfg.cpu(), stealSeconds()}
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if cfg.seconds > 0 && !time.Now().Before(deadline) || cfg.seconds == 0 && i >= cfg.maxOps {
					return
				}
				t0 := time.Now()
				kind, st, err := cfg.run(ctx, i)
				per[c] = append(per[c], sample{seq: i, start: t0, kind: kind, wall: time.Since(t0), st: st, err: err})
				if n := done.Add(1); n%int64(cfg.roundOps) == 0 {
					m := mark{time.Now(), cfg.cpu(), stealSeconds()}
					mu.Lock()
					marks[n/int64(cfg.roundOps)] = m
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()

	var res loopResult
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	sort.Slice(res.samples, func(a, b int) bool { return res.samples[a].seq < res.samples[b].seq })
	for r := int64(1); ; r++ {
		m, ok := marks[r]
		if !ok {
			break
		}
		prev := marks[r-1]
		res.rounds = append(res.rounds, round{end: m.t, dur: m.t.Sub(prev.t), cpu: m.cpu - prev.cpu, steal: m.steal - prev.steal})
	}
	for _, s := range res.samples {
		if s.err != nil {
			res.failed++
			if len(res.errs) < 3 {
				res.errs = append(res.errs, fmt.Errorf("%s op %d: %w", s.kind, s.seq, s.err))
			}
		}
	}
	return res
}

// quantile is the q-quantile of xs (sorted in place) by the "exclusive"
// method of Python's statistics.quantiles, which is how the benchmark's
// spreads are defined: position q·(n+1) in the sorted data, interpolated
// between its neighbours and, beyond the second or the second-to-last
// value, extrapolated from those two.
func quantile(xs []float64, q float64) float64 {
	switch len(xs) {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)+1)
	j := min(max(int(math.Floor(pos)), 1), len(xs)-1)
	return xs[j-1] + (pos-float64(j))*(xs[j]-xs[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Process accounting read from /proc. Linux reports utime and stime in
// USER_HZ ticks, which is 100 on every supported architecture.
const userHZ = 100

// selfCPU is the benchmark process's user+sys CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// procCPU is pid's user+sys CPU seconds from /proc/<pid>/stat.
func procCPU(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return math.NaN()
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return math.NaN()
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / userHZ
}

// peakRSSMB is pid's VmHWM (peak resident set) in MB.
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// resetPeakRSS returns the process's garbage to the OS and restarts the
// kernel's peak-RSS (VmHWM) accounting, so the peak covers only what
// follows; the benchmark's own inputs and expected answers stay resident.
// Where the kernel refuses, the peak covers the whole process lifetime.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stealSeconds is the machine-wide steal time so far, from /proc/stat.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return math.NaN()
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / userHZ
}

func loadavg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(raw))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}
