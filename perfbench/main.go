// Command perfbench is the pipeline benchmark of this repository. It
// generates the 17,776-gate decoder SoC (gen.DefaultSoC) as Verilog text,
// drives that text through the public functions of each pipeline layer —
// parse, elaborate, hypergraph, partition, pre-simulate, Time Warp — and
// prints its metrics as one JSON object on the last line of its output.
//
// Build and run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload tw-soc-k4 --seed 1 --seconds 30 --trace 0
//
// With -trace 0 it measures the end-to-end metrics untraced; with -trace
// 1 it records a span around every layer call, checks that the stages
// account for the op's wall time, writes a Chrome trace and a folded
// flame under -out, and reports the per-layer metrics. README.md maps
// each layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the random stimulus and the partitioners")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for the traced run's trace and flame files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	budget := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = measureTraced(newW(), *name, *seed, budget, *out, stdout)
	} else {
		rep, err = measure(newW(), *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run shape shared by both modes.
const (
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 9
	// minReps is the fewest timed ops a run makes, whatever the budget.
	minReps = 3
	// opBound is the op_s bound of BENCHMARK.json.
	opBound = 0.25
)

// measure is the untraced run: set-up setupReps times, then paired ops
// until the budget is spent, then the workload's partition quality.
func measure(w workload, seed int64, budget time.Duration, stdout io.Writer) (*report, error) {
	src := soc()
	var e *env
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(w, src, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var ops, refs, ratios, pairs []float64
	failed := 0
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds()+median(pairs) <= budget.Seconds(); rep++ {
		p, problems, err := w.pair(e, rep%2 == 1)
		if err != nil {
			return nil, err
		}
		if len(problems) > 0 {
			failed++
			fmt.Fprintf(stdout, "FAIL rep %d: %s\n", rep, strings.Join(problems, "; "))
		}
		ops = append(ops, p.op.Seconds())
		refs = append(refs, p.ref.Seconds())
		ratios = append(ratios, p.ref.Seconds()/p.op.Seconds())
		pairs = append(pairs, (p.op + p.ref).Seconds())
	}

	q, err := w.quality(e)
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()

	q1, med, q3 := quartiles(ops)
	fmt.Fprintf(stdout, "setup_s          median %.4f over %d set-ups\n", median(setups), len(setups))
	spread := (q3 - q1) / med
	noisy := ""
	if spread > opBound/3 {
		noisy = "  NOISY: above a third of the op_s bound"
	}
	fmt.Fprintf(stdout, "op_s             median %.4f  q1 %.4f  q3 %.4f  iqr/median %.3f over %d ops%s\n",
		med, q1, q3, spread, len(ops), noisy)
	fmt.Fprintf(stdout, "reference_s      median %.4f (%s)\n", median(refs), w.reference())
	fmt.Fprintf(stdout, "speedup          median %.4f of per-pair ratios %s\n", median(ratios), fmtList(ratios))
	fmt.Fprintf(stdout, "cut              %d\n", q.cut)
	fmt.Fprintf(stdout, "modeled_speedup  %.4f\n", q.modeled)
	fmt.Fprintf(stdout, "peak_mem_mb      %.1f\n", peak)
	fmt.Fprintf(stdout, "fail_frac        %d/%d\n", failed, len(ops))

	return &report{
		Correct:   failed == 0,
		Attempted: len(ops),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"op_s":            {med, "s"},
			"peak_mem_mb":     {peak, "MB"},
			"cut":             {float64(q.cut), "count"},
			"modeled_speedup": {q.modeled, "x"},
			"speedup":         {median(ratios), "x"},
		},
	}, nil
}

// timed collects garbage, then times f — the shape of every timed call.
func timed(f func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) (exclusive method) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
