// Command perfbench is the repository benchmark: it times federated
// training rounds with the paper's CNN, 10k-peer X-layer aggregations
// and two-layer Raft failover trials through the public APIs of the
// internal packages, checks every output, and prints one JSON result.
//
//	bash perfbench/run.sh --workload fl_train --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the whole run is traced, and the result holds the per-layer metrics
// computed from its spans, the program's own counters and MemStats
// deltas, plus the tracing overhead: the time the tracer and its
// instrumentation spent per operation. See README.md for the workloads
// and the layers each one exercises.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runStats is what one pass of a workload measured.
type runStats struct {
	attempted, failed int
	// samples are the wall times in seconds of the timed operations
	// (warm-up operations excluded).
	samples []float64
	// bytesPerOp is the measured network traffic per timed operation.
	bytesPerOp float64
	// setups are the wall times in seconds of the repeated set-ups.
	setups []float64
	// heapLiveMB is the Go heap in use after a forced collection that
	// follows the warm-up: the memory the deployment holds.
	heapLiveMB float64
	// layer holds per-layer metrics; only traced passes fill it.
	layer map[string]float64
	// notes are workload-specific figures printed in the report.
	notes []string
}

// workloadFunc runs one pass of a workload for the given seconds. An
// error means the pass could not run at all; a failed correctness check
// is counted in runStats.failed instead.
type workloadFunc func(seed int64, seconds float64, tr *tracer) (*runStats, error)

var workloads = map[string]workloadFunc{
	"fl_train":   runFLTrain,
	"xlayer_10k": runXLayer,
	"failover":   runFailover,
}

func main() {
	name := flag.String("workload", "", "workload: fl_train, xlayer_10k or failover")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fl_train|xlayer_10k|failover, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	host := readHost()
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	res, err := run(wl, *name, *seed, *seconds, *trace == 1, host)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(wl workloadFunc, name string, seed int64, seconds float64, traced bool, host hostRecord) (*result, error) {
	if !traced {
		st, err := wl(seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		values := map[string]float64{
			"round_s_p50":     quantile(st.samples, 0.5),
			"round_s_p90":     quantile(st.samples, 0.9),
			"ops_per_s":       float64(len(st.samples)) / sum(st.samples),
			"bytes_per_round": st.bytesPerOp,
			"setup_s":         quantile(st.setups, 0.5),
			"heap_live_mb":    st.heapLiveMB,
		}
		st.notes = append(st.notes,
			fmt.Sprintf("round_s min/p10/p25/p50/p75/p90/max %.4g/%.4g/%.4g/%.4g/%.4g/%.4g/%.4g s (n=%d)",
				quantile(st.samples, 0), quantile(st.samples, 0.1), quantile(st.samples, 0.25), quantile(st.samples, 0.5),
				quantile(st.samples, 0.75), quantile(st.samples, 0.9), quantile(st.samples, 1), len(st.samples)),
			fmt.Sprintf("peak_rss_mb %.6g MB (process VmHWM)", peakRSSMB()))
		report(name, st, values, endToEnd)
		return newResult(st.attempted, st.failed, values, endToEnd)
	}
	tr := newTracer()
	st, err := wl(seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{}
	for k, v := range st.layer {
		values[k] = v
	}
	values["runtime.peak_rss_mb"] = peakRSSMB()
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", name, seed)
	if err := tr.write(path, host); err != nil {
		return nil, err
	}
	fmt.Printf("trace %s: %d spans\n", path, len(tr.spans))
	report(name, st, values, perLayer)
	return newResult(st.attempted, st.failed, values, perLayer)
}

// newResult keeps exactly the metrics of defs; a layer the workload
// bypasses reads 0. A value outside defs is a bug in this benchmark.
func newResult(attempted, failed int, values map[string]float64, defs []metricDef) (*result, error) {
	known := map[string]bool{}
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		known[d.name] = true
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if failed == 0 {
				return nil, fmt.Errorf("metric %s is %v", d.name, v)
			}
			v = 0 // a failed run may stop before any sample; JSON has no NaN
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for k := range values {
		if !known[k] {
			return nil, fmt.Errorf("metric %s is not declared", k)
		}
	}
	return res, nil
}

// report prints every metric with its unit and sample count, then the
// workload's own notes, ahead of the JSON result line.
func report(name string, st *runStats, values map[string]float64, defs []metricDef) {
	fmt.Printf("workload %s: %d attempted, %d failed, %d timed, %d set-ups\n",
		name, st.attempted, st.failed, len(st.samples), len(st.setups))
	for _, d := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, note := range st.notes {
		fmt.Printf("  %s\n", note)
	}
}

// hostRecord identifies the machine and build that produced a result.
type hostRecord struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readHost() hostRecord {
	h := hostRecord{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The revision is stamped by the go command when the source is a git
	// checkout; an exported tree has none.
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "-dirty"
		}
	}
	return h
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// timeLoop runs op until seconds have elapsed. The first warmup
// operations are run and checked but not timed into the samples, so
// lazily grown buffers are in place before timing starts; a forced
// collection then measures the live heap and lets every run start timing
// from the same heap state. It stops at the first failed operation.
func timeLoop(st *runStats, seconds float64, warmup int, op func(i int) (float64, error)) {
	var start time.Time
	for i := 0; ; i++ {
		if i == warmup {
			runtime.GC()
			st.heapLiveMB = float64(readMem().HeapAlloc) / (1 << 20)
			start = time.Now()
		}
		if i >= warmup && time.Since(start).Seconds() >= seconds {
			return
		}
		st.attempted++
		wall, err := op(i)
		if err != nil {
			st.failed++
			st.notes = append(st.notes, fmt.Sprintf("FAILED op %d: %v", i, err))
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			return
		}
		if i >= warmup {
			st.samples = append(st.samples, wall)
		}
	}
}

// memDelta is the change in the Go heap counters over one phase.
type memDelta struct{ allocMB, mallocs, pauseS float64 }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocMB: float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		mallocs: float64(b.Mallocs - a.Mallocs),
		pauseS:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e9,
	}
}

// seedFor derives an independent seed for item i of a run seeded with
// seed (splitmix64 finalizer).
func seedFor(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
