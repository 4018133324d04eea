package main

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/clustersim"
	"repro/internal/multilevel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// nlevel-soc: multilevel.PartitionN on the flat hypergraph at K=8, B=10.
// It is the partitioner workload of the pipeline: it exercises
// hypergraph.Dyn and the fm gain-cache k-way refiner, and nothing of
// presim or timewarp. It uses fm differently from select-soc (k-way gain
// cache here, pairwise recompute there), so an FM change that helps one
// and hurts the other shows. The op runs on GOMAXPROCS workers; its
// reference is the same call on one worker, which does the op's work
// whatever the seed and must return the same partition.
type nlevelSoC struct {
	res *multilevel.Result // first op's result; every later op must match it
}

const (
	nlevelK = 8
	nlevelB = 10
)

func (w *nlevelSoC) prepare(*env, *obs.Observer) error { return nil }

func (w *nlevelSoC) reference() string { return "PartitionN on one worker" }

func (w *nlevelSoC) partition(e *env, workers int) (*multilevel.Result, error) {
	return multilevel.PartitionN(e.flat, multilevel.Options{K: nlevelK, B: nlevelB, Seed: e.seed, Workers: workers})
}

func (w *nlevelSoC) pair(e *env, refFirst bool) (pairTimes, []string, error) {
	var op, ref *multilevel.Result
	p, err := pairRun(refFirst,
		func() (err error) { ref, err = w.partition(e, 1); return err },
		func() (err error) { op, err = w.partition(e, runtime.GOMAXPROCS(0)); return err })
	if err != nil {
		return p, nil, err
	}
	problems := w.check(e, op)
	if !slices.Equal(op.GateParts, ref.GateParts) {
		problems = append(problems, "partition differs between one and GOMAXPROCS workers")
	}
	return p, problems, nil
}

// check returns the problems of one op's result: a cut the recount does
// not reproduce, a broken balance, or a result that differs from the
// first op's.
func (w *nlevelSoC) check(e *env, res *multilevel.Result) []string {
	problems := checkPartition(e, "PartitionN", nlevelK, res.Cut, res.Balanced, res.GateParts)
	if w.res == nil {
		w.res = res
	} else if res.Cut != w.res.Cut || !slices.Equal(res.GateParts, w.res.GateParts) {
		problems = append(problems, fmt.Sprintf("cut %d differs from the first op's %d", res.Cut, w.res.Cut))
	}
	return problems
}

func (w *nlevelSoC) quality(e *env) (quality, error) {
	res, err := clustersim.Run(clustersim.Config{
		NL: e.ed.Netlist, GateParts: w.res.GateParts, K: nlevelK,
		Vectors: sim.RandomVectors{Seed: e.seed}, Cycles: presimCycles,
	})
	if err != nil {
		return quality{}, err
	}
	return quality{cut: w.res.Cut, modeled: res.Speedup}, nil
}

func (w *nlevelSoC) tracedOp(e *env, o *obs.Observer, c counters) ([]string, error) {
	var res *multilevel.Result
	var allocs allocDelta
	allocs.start()
	if err := span(o, "multilevel.partition_n", func() (err error) {
		res, err = w.partition(e, runtime.GOMAXPROCS(0))
		return err
	}); err != nil {
		return nil, err
	}
	allocs.stop()
	var problems []string
	span(o, "bench.check", func() error { problems = w.check(e, res); return nil })

	maxLoad := slices.Max(res.Loads)
	c["multilevel.levels"] = float64(res.Levels)
	c["multilevel.imbalance"] = float64(maxLoad)/(float64(e.flat.TotalWeight)/nlevelK) - 1
	c["multilevel.allocs_per_op"] = allocs.mallocs
	c["multilevel.alloc_mb_per_op"] = allocs.mb
	return problems, nil
}

func (w *nlevelSoC) once(*env, *obs.Observer, counters) ([]string, error) { return nil, nil }
