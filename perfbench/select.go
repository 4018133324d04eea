package main

import (
	"fmt"
	"reflect"
	"runtime"

	"repro/internal/clustersim"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/presim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// select-soc: the paper's §3.4 selection campaign, presim.BruteForce over
// k∈{2,3,4} × b∈{5,10,15} on GOMAXPROCS workers — the user's "choose my
// partition" step. partition.Multiway does about two thirds of the work,
// sim.NewWaveBank and clustersim.Run the rest; n-level partitioning and
// Time Warp do none of it. The reference is the same grid replayed point
// by point on one worker through those three public calls, and the
// campaign's points must equal the replay's.
type selectSoC struct {
	best  *presim.Point   // first op's best point; later ops must agree
	first []*presim.Point // first traced replay's points
}

var (
	selectKs = []int{2, 3, 4}
	selectBs = []float64{5, 10, 15}
)

// presimCycles is the pre-simulation length of the campaign, also used to
// model the n-level partition's speedup.
const presimCycles = 2000

func (w *selectSoC) prepare(*env, *obs.Observer) error { return nil }

func (w *selectSoC) reference() string { return "one-worker replay of the grid" }

func (w *selectSoC) bruteForce(e *env, camp *stats.Campaign) ([]*presim.Point, *presim.Point, error) {
	return presim.BruteForce(&presim.Config{
		Design: e.ed, Ks: selectKs, Bs: selectBs, Cycles: presimCycles, Seed: e.seed,
		Workers: runtime.GOMAXPROCS(0), Campaign: camp,
	})
}

// replayCounts are the layer counters of one replay.
type replayCounts struct {
	waves          int
	events, reexec uint64
}

// replay evaluates the grid the way a one-worker presim campaign does: one
// shared wave bank, then per point a one-worker Multiway partition and a
// cluster-model run over the bank.
func (w *selectSoC) replay(e *env, o *obs.Observer) ([]*presim.Point, replayCounts, error) {
	var rc replayCounts
	vs := sim.RandomVectors{Seed: e.seed}
	var bank *sim.WaveBank
	if err := span(o, "sim.wavebank", func() (err error) {
		bank, err = sim.NewWaveBank(e.ed.Netlist, vs, presimCycles)
		return err
	}); err != nil {
		return nil, rc, err
	}
	rc.waves = bank.NumWaves()
	var points []*presim.Point
	for _, k := range selectKs {
		for _, b := range selectBs {
			var pr *partition.Result
			if err := span(o, "partition.multiway", func() (err error) {
				pr, err = partition.Multiway(e.ed, partition.Options{K: k, B: b, Workers: 1})
				return err
			}); err != nil {
				return nil, rc, err
			}
			var res *clustersim.Result
			if err := span(o, "clustersim.run", func() (err error) {
				res, err = clustersim.Run(clustersim.Config{
					NL: e.ed.Netlist, GateParts: pr.GateParts, K: k,
					Vectors: vs, Cycles: presimCycles, Waves: bank,
				})
				return err
			}); err != nil {
				return nil, rc, err
			}
			rc.events += res.Events
			rc.reexec += res.ReexecEvents
			points = append(points, &presim.Point{
				K: k, B: b, Cut: pr.Cut, Balanced: pr.Balanced,
				SimTime: res.ParTime, SeqTime: res.SeqTime, Speedup: res.Speedup,
				Messages: res.Messages, Rollbacks: res.Rollbacks,
				CritPath: res.CritPath, BoundSpeedup: res.BoundSpeedup,
				GateParts: pr.GateParts,
			})
		}
	}
	return points, rc, nil
}

// samePoints compares two grids point by point, wall times aside.
func samePoints(a, b []*presim.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := *a[i], *b[i]
		x.PartWall, x.SimWall, y.PartWall, y.SimWall = 0, 0, 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// check returns the problems of one campaign: points that differ from the
// one-worker replay, or a best (k, b) that differs from the first op's.
func (w *selectSoC) check(points []*presim.Point, best *presim.Point, replay []*presim.Point) []string {
	var problems []string
	if !samePoints(points, replay) {
		problems = append(problems, "campaign points differ from the one-worker replay")
	}
	if w.best == nil {
		w.best = best
	} else if best.K != w.best.K || best.B != w.best.B {
		problems = append(problems, fmt.Sprintf("best point (k=%d, b=%g) differs from the first op's (k=%d, b=%g)",
			best.K, best.B, w.best.K, w.best.B))
	}
	return problems
}

func (w *selectSoC) pair(e *env, refFirst bool) (pairTimes, []string, error) {
	var ref, points []*presim.Point
	var best *presim.Point
	p, err := pairRun(refFirst,
		func() (err error) { ref, _, err = w.replay(e, nil); return err },
		func() (err error) { points, best, err = w.bruteForce(e, nil); return err })
	if err != nil {
		return p, nil, err
	}
	return p, w.check(points, best, ref), nil
}

func (w *selectSoC) quality(*env) (quality, error) {
	return quality{cut: w.best.Cut, modeled: w.best.Speedup}, nil
}

func (w *selectSoC) tracedOp(e *env, o *obs.Observer, c counters) ([]string, error) {
	points, rc, err := w.replay(e, o)
	if err != nil {
		return nil, err
	}
	var problems []string
	span(o, "bench.check", func() error {
		if w.first == nil {
			w.first = points
		} else if !samePoints(points, w.first) {
			problems = append(problems, "replay points differ from the first replay's")
		}
		return nil
	})

	cutSum, balanced := 0, 0
	var msgs, rollbacks uint64
	for _, p := range points {
		cutSum += p.Cut
		if p.Balanced {
			balanced++
		}
		msgs += p.Messages
		rollbacks += p.Rollbacks
	}
	c["sim.waves"] = float64(rc.waves)
	c["partition.calls"] = float64(len(points))
	c["partition.cut_sum"] = float64(cutSum)
	c["partition.balanced_frac"] = float64(balanced) / float64(len(points))
	c["clustersim.events"] = float64(rc.events)
	c["clustersim.messages"] = float64(msgs)
	c["clustersim.rollbacks"] = float64(rollbacks)
	c["clustersim.reexec_events"] = float64(rc.reexec)
	return problems, nil
}

// once runs the campaign itself on GOMAXPROCS workers and checks it
// against the replay.
func (w *selectSoC) once(e *env, o *obs.Observer, c counters) ([]string, error) {
	camp := stats.NewCampaign(runtime.GOMAXPROCS(0))
	var points []*presim.Point
	var best *presim.Point
	var allocs allocDelta
	allocs.start()
	if err := span(o, "presim.campaign", func() (err error) {
		points, best, err = w.bruteForce(e, camp)
		return err
	}); err != nil {
		return nil, err
	}
	allocs.stop()
	c["presim.points"] = float64(len(points))
	c["presim.allocs_per_op"] = allocs.mallocs
	c["presim.pool_util"] = camp.Finish().Utilization()
	return w.check(points, best, w.first), nil
}
