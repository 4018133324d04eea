package main

import (
	"io"
	"reflect"
	"testing"
)

const (
	defaultSeed = 1
	// heldOutSeed was not used while the benchmark was written.
	heldOutSeed = 7919
)

// The steadiness rule of this benchmark is stated in terms of Python's
// statistics.quantiles(xs, n=4); the printed spread must match it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1.5, 2.25, 9, 4}, [3]float64{1.875, 4, 7}},
	}
	for _, tc := range cases {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "tw-soc-k4", "--seconds", "0"},
		{"--workload", "tw-soc-k4", "--trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// deterministicMetrics runs one paired op, one (untraced) traced-run op
// and the once-only step of a workload, failing the test on any output
// check, and returns the metrics that must repeat exactly for a seed.
func deterministicMetrics(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	w := workloads[name]()
	e, err := setup(w, soc(), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := counters{}
	_, problems, err := w.pair(e, false)
	if err == nil && len(problems) == 0 {
		problems, err = w.tracedOp(e, nil, c)
	}
	if err == nil && len(problems) == 0 {
		problems, err = w.once(e, nil, c)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("seed %d: %v", seed, problems)
	}
	q, err := w.quality(e)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{"cut": float64(q.cut), "modeled_speedup": q.modeled}
	for _, k := range []string{
		"clustersim.events", "clustersim.messages", "clustersim.rollbacks", "clustersim.reexec_events",
		"multilevel.levels", "partition.cut_sum", "presim.points", "sim.waves",
	} {
		m[k] = c[k]
	}
	if s, ok := w.(*selectSoC); ok {
		m["presim.best_k"] = float64(s.best.K)
		m["presim.best_b"] = s.best.B
	}
	return m
}

func TestDeterministicMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice at full size")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := deterministicMetrics(t, name, defaultSeed)
			b := deterministicMetrics(t, name, defaultSeed)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d gave\n%v\nthen\n%v", defaultSeed, a, b)
			}
		})
	}
}

func TestHeldOutSeedPassesChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			m := deterministicMetrics(t, name, heldOutSeed)
			if m["cut"] <= 0 || m["modeled_speedup"] <= 0 {
				t.Errorf("seed %d: cut %v, modeled speedup %v; both must be positive",
					heldOutSeed, m["cut"], m["modeled_speedup"])
			}
		})
	}
}
