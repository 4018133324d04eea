package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// layerMetrics lists every per-layer metric with its unit. A metric whose
// name ends in _s is the per-op (or per-set-up) time of the span of the
// same name without the suffix. A layer a workload does not exercise
// reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"verilog.parse_s", "s"},
	{"elab.elaborate_s", "s"},
	{"elab.gates", "count"},
	{"hypergraph.build_s", "s"},
	{"hypergraph.pins", "count"},
	{"partition.multiway_s", "s"},
	{"partition.calls", "count"},
	{"partition.cut_sum", "count"},
	{"partition.balanced_frac", "ratio"},
	{"multilevel.partition_n_s", "s"},
	{"multilevel.levels", "count"},
	{"multilevel.imbalance", "ratio"},
	{"multilevel.allocs_per_op", "count"},
	{"multilevel.alloc_mb_per_op", "MB"},
	{"sim.wavebank_s", "s"},
	{"sim.waves", "count"},
	{"sim.seq_s", "s"},
	{"sim.seq_events", "count"},
	{"clustersim.run_s", "s"},
	{"clustersim.events", "count"},
	{"clustersim.messages", "count"},
	{"clustersim.rollbacks", "count"},
	{"clustersim.reexec_events", "count"},
	{"presim.campaign_s", "s"},
	{"presim.points", "count"},
	{"presim.allocs_per_op", "count"},
	{"presim.pool_util", "ratio"},
	{"timewarp.run_s", "s"},
	{"timewarp.events", "count"},
	{"timewarp.rolled_back_events", "count"},
	{"timewarp.efficiency", "ratio"},
	{"timewarp.rollbacks", "count"},
	{"timewarp.anti_messages", "count"},
	{"timewarp.max_straggler_depth", "count"},
	{"timewarp.checkpoints", "count"},
	{"timewarp.pool_hit_ratio", "ratio"},
	{"timewarp.allocs_per_op", "count"},
	{"timewarp.gc_cycles_per_op", "count"},
	{"timewarp.cpu_util", "ratio"},
	{"comm.messages", "count"},
	{"comm.batches", "count"},
	{"comm.events_per_batch", "ratio"},
	{"bench.check_s", "s"},
	{"bench.trace_overhead_s", "s"},
	{"bench.stage_coverage", "ratio"},
}

// maxUncovered is the largest share of a set-up's or an op's wall that
// its stage spans may leave unaccounted for.
const maxUncovered = 0.05

// measureTraced is the traced run. It sets up setupReps times under spans,
// then runs ops in pairs, one traced and one untraced in alternating
// order, until the budget is spent, then the workload's once-only part.
// The trace gives the per-layer times; the ops' results give the counts.
func measureTraced(w workload, name string, seed int64, budget time.Duration, outDir string, stdout io.Writer) (*report, error) {
	src := soc()
	o := obs.New(obs.Options{})
	c := counters{}
	var e *env
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var err error
		if e, err = setup(w, src, seed, o); err != nil {
			return nil, err
		}
	}
	c["elab.gates"] = float64(len(e.ed.Netlist.Gates))
	c["hypergraph.pins"] = float64(pins(e.flat))

	attempted, failed := 0, 0
	tally := func(what string, problems []string) {
		attempted++
		if len(problems) > 0 {
			failed++
			fmt.Fprintf(stdout, "FAIL %s: %s\n", what, strings.Join(problems, "; "))
		}
	}
	var traced, untraced []float64
	start := time.Now()
	for rep := 0; rep < 1 || time.Since(start).Seconds()+median(traced)+median(untraced) <= budget.Seconds(); rep++ {
		for _, on := range []bool{rep%2 == 0, rep%2 == 1} {
			var oo *obs.Observer
			if on {
				oo = o
			}
			var problems []string
			d, err := timed(func() error {
				return span(oo, "op", func() (err error) {
					problems, err = w.tracedOp(e, oo, c)
					return err
				})
			})
			if err != nil {
				return nil, err
			}
			tally(fmt.Sprintf("op %d (traced %v)", rep, on), problems)
			if on {
				traced = append(traced, d.Seconds())
			} else {
				untraced = append(untraced, d.Seconds())
			}
		}
	}
	runtime.GC()
	problems, err := w.once(e, o, c)
	if err != nil {
		return nil, err
	}
	tally("once-only step", problems)

	events, dropped := o.Events()
	if dropped > 0 {
		return nil, fmt.Errorf("trace ring dropped %d events", dropped)
	}
	tab := profile.Build(events)
	if err := writeTrace(o, tab, filepath.Join(outDir, name)); err != nil {
		return nil, err
	}

	// Breakdown: the stage spans must account for each root's wall.
	fmt.Fprintf(stdout, "stage breakdown (%d set-ups, %d traced ops):\n%s", setupReps, len(traced), tab.String())
	coverage := 1.0
	for _, root := range []string{"setup", "op"} {
		ps := phase(tab, root)
		cov := 1 - float64(ps.SelfUS)/float64(ps.TotalUS)
		fmt.Fprintf(stdout, "%-6s stage self time sums to %.2f%% of its wall (%d µs of %d µs)\n",
			root, 100*cov, ps.TotalUS-ps.SelfUS, ps.TotalUS)
		uncovered := []string(nil)
		if 1-cov > maxUncovered {
			uncovered = []string{fmt.Sprintf("%s stages cover only %.1f%% of its wall", root, 100*cov)}
		}
		tally(root+" breakdown", uncovered)
		coverage = min(coverage, cov)
	}
	overhead := median(traced) - median(untraced)
	fmt.Fprintf(stdout, "tracing overhead: traced op median %.4f s − untraced %.4f s = %.4f s\n",
		median(traced), median(untraced), overhead)

	for _, s := range tab.Stacks {
		frames := strings.Split(s.Stack, ";")
		root, leaf := frames[1], frames[len(frames)-1]
		if leaf == "setup" || leaf == "op" {
			continue // time no stage accounts for
		}
		c[leaf+"_s"] += float64(s.SelfUS) / 1e6 / float64(phase(tab, root).Count)
	}
	c["bench.trace_overhead_s"] = overhead
	c["bench.stage_coverage"] = coverage

	metrics := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		metrics[m.name] = metric{c[m.name], m.unit}
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// phase returns the profile row of a span name on the benchmark's track.
func phase(tab *profile.Table, name string) profile.PhaseStat {
	for _, p := range tab.Phases {
		if p.Track == track && p.Phase == name {
			return p
		}
	}
	return profile.PhaseStat{Track: track, Phase: name}
}

// writeTrace writes base.trace.json and base.folded and validates both
// with the decoders cmd/obscheck uses.
func writeTrace(o *obs.Observer, tab *profile.Table, base string) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	var tr bytes.Buffer
	if err := o.WriteChromeTrace(&tr); err != nil {
		return err
	}
	if _, err := obs.DecodeChromeTrace(bytes.NewReader(tr.Bytes())); err != nil {
		return fmt.Errorf("trace does not decode: %w", err)
	}
	folded := tab.AppendFolded(nil, "")
	if _, err := profile.ValidateFolded(folded); err != nil {
		return fmt.Errorf("folded flame invalid: %w", err)
	}
	if err := os.WriteFile(base+".trace.json", tr.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".folded", folded, 0o644)
}

// allocDelta measures the heap allocations and GC cycles between start
// and stop.
type allocDelta struct {
	m0               runtime.MemStats
	mallocs, mb, gcs float64
}

func (a *allocDelta) start() { runtime.ReadMemStats(&a.m0) }

func (a *allocDelta) stop() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.mallocs = float64(m.Mallocs - a.m0.Mallocs)
	a.mb = float64(m.TotalAlloc-a.m0.TotalAlloc) / (1 << 20)
	a.gcs = float64(m.NumGC - a.m0.NumGC)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
