package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/clustersim"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/timewarp"
)

// tw-soc-k4: the parallel simulation itself — timewarp.Run with K=4 on the
// partition.Multiway(K=4, B=10) partition built in set-up, so rollback,
// anti-message, checkpoint and GVT paths are all hot. K=4 because K=2
// cuts this SoC between its channels: no messages would flow and the
// comm and rollback paths would go unmeasured. Each op is paired with a
// sequential sim.Simulator run over the same vectors, which is also the
// correctness oracle; the partitioners and presim do no work in the op.
type twSoC struct {
	part *partition.Result
}

const (
	twK      = 4
	twB      = 10
	twCycles = 2000
)

func (w *twSoC) prepare(e *env, o *obs.Observer) error {
	return span(o, "partition.multiway", func() (err error) {
		w.part, err = partition.Multiway(e.ed, partition.Options{K: twK, B: twB, Seed: e.seed})
		if err != nil {
			return err
		}
		if problems := checkPartition(e, "Multiway", twK, w.part.Cut, w.part.Balanced, w.part.GateParts); len(problems) > 0 {
			return fmt.Errorf("set-up partition: %v", problems)
		}
		return nil
	})
}

func (w *twSoC) reference() string { return "sequential sim.Simulator" }

func (w *twSoC) vectors(e *env) sim.RandomVectors { return sim.RandomVectors{Seed: e.seed} }

// sequential runs the reference simulator and returns the primary
// outputs' value after every cycle, plus its gate evaluations.
func (w *twSoC) sequential(e *env) (map[netlist.NetID][]bool, uint64, error) {
	nl := e.ed.Netlist
	s, err := sim.New(nl)
	if err != nil {
		return nil, 0, err
	}
	want := make(map[netlist.NetID][]bool, len(nl.POs))
	for _, po := range nl.POs {
		want[po] = make([]bool, twCycles)
	}
	vs := w.vectors(e)
	buf := make([]bool, s.VectorWidth())
	var events uint64
	for c := uint64(0); c < twCycles; c++ {
		vs.Vector(c, buf)
		n, err := s.Step(buf)
		if err != nil {
			return nil, 0, err
		}
		events += n
		for _, po := range nl.POs {
			want[po][c] = s.Value(po)
		}
	}
	return want, events, nil
}

func (w *twSoC) timeWarp(e *env) (*timewarp.Result, error) {
	return timewarp.Run(timewarp.Config{
		NL: e.ed.Netlist, GateParts: w.part.GateParts, K: twK,
		Vectors: w.vectors(e), Cycles: twCycles,
	})
}

// check compares the committed waveforms with the sequential run's and
// the kernel's own end-of-run invariants.
func (w *twSoC) check(res *timewarp.Result, want map[netlist.NetID][]bool) []string {
	var problems []string
	for po, vals := range want {
		if !slices.Equal(res.Observed[po], vals) {
			problems = append(problems, fmt.Sprintf("output net %d differs from the sequential run", po))
		}
	}
	if len(res.InvariantViolations) > 0 {
		problems = append(problems, fmt.Sprintf("invariant violations: %v", res.InvariantViolations))
	}
	if res.FinalGVT != twCycles {
		problems = append(problems, fmt.Sprintf("final GVT %d, want %d", res.FinalGVT, twCycles))
	}
	return problems
}

func (w *twSoC) pair(e *env, refFirst bool) (pairTimes, []string, error) {
	var want map[netlist.NetID][]bool
	var res *timewarp.Result
	p, err := pairRun(refFirst,
		func() (err error) { want, _, err = w.sequential(e); return err },
		func() (err error) { res, err = w.timeWarp(e); return err })
	if err != nil {
		return p, nil, err
	}
	return p, w.check(res, want), nil
}

func (w *twSoC) quality(e *env) (quality, error) {
	res, err := clustersim.Run(clustersim.Config{
		NL: e.ed.Netlist, GateParts: w.part.GateParts, K: twK,
		Vectors: w.vectors(e), Cycles: twCycles,
	})
	if err != nil {
		return quality{}, err
	}
	return quality{cut: w.part.Cut, modeled: res.Speedup}, nil
}

func (w *twSoC) tracedOp(e *env, o *obs.Observer, c counters) ([]string, error) {
	var want map[netlist.NetID][]bool
	var events uint64
	if err := span(o, "sim.seq", func() (err error) {
		want, events, err = w.sequential(e)
		return err
	}); err != nil {
		return nil, err
	}

	var res *timewarp.Result
	var allocs allocDelta
	allocs.start()
	cpu0, t0 := cpuTime(), time.Now()
	if err := span(o, "timewarp.run", func() (err error) {
		res, err = w.timeWarp(e)
		return err
	}); err != nil {
		return nil, err
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	allocs.stop()
	var problems []string
	span(o, "bench.check", func() error { problems = w.check(res, want); return nil })

	st := res.Stats
	c["sim.seq_events"] = float64(events)
	c["timewarp.events"] = float64(st.Events)
	c["timewarp.rolled_back_events"] = float64(st.RolledBackEvents)
	c["timewarp.efficiency"] = ratio(float64(st.Events-st.RolledBackEvents), float64(st.Events))
	c["timewarp.rollbacks"] = float64(st.Rollbacks)
	c["timewarp.anti_messages"] = float64(st.AntiMessages)
	c["timewarp.max_straggler_depth"] = float64(st.MaxStragglerDepth)
	c["timewarp.checkpoints"] = float64(st.Checkpoints)
	c["timewarp.pool_hit_ratio"] = ratio(float64(st.PoolHits), float64(st.PoolHits+st.PoolMisses))
	c["timewarp.allocs_per_op"] = allocs.mallocs
	c["timewarp.gc_cycles_per_op"] = allocs.gcs
	c["timewarp.cpu_util"] = ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	c["comm.messages"] = float64(st.Messages)
	c["comm.batches"] = float64(st.Batches)
	c["comm.events_per_batch"] = ratio(float64(st.BatchedEvents), float64(st.Batches))
	return problems, nil
}

// once reports the set-up partition, the only partitioner work here.
func (w *twSoC) once(_ *env, _ *obs.Observer, c counters) ([]string, error) {
	c["partition.calls"] = 1
	c["partition.cut_sum"] = float64(w.part.Cut)
	c["partition.balanced_frac"] = 1 // set-up fails on an unbalanced partition
	return nil, nil
}
