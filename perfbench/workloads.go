package main

import (
	"fmt"
	"time"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/verilog"
)

// track is the trace track of every span the benchmark records. All spans
// of a run share it so that obs/profile nests the layer calls under the
// set-up or op span that made them.
const track = obs.TrackCampaign

// workloads maps each workload name to its constructor. All of them run
// on gen.DefaultSoC (2 channels, 17,776 gates); the seed drives the random
// stimulus and the partitioners' random streams.
var workloads = map[string]func() workload{
	"select-soc": func() workload { return &selectSoC{} },
	"nlevel-soc": func() workload { return &nlevelSoC{} },
	"tw-soc-k4":  func() workload { return &twSoC{} },
}

// workload is one benchmark workload. Every method takes an observer that
// is nil in untraced runs; spans recorded under it wrap calls into the
// program's public functions.
type workload interface {
	// prepare is the workload's own set-up after the shared stages; it is
	// timed into setup_s.
	prepare(e *env, o *obs.Observer) error
	// pair runs one timed op and its one-worker reference back to back,
	// the reference first when refFirst, and checks the op's output.
	pair(e *env, refFirst bool) (pairTimes, []string, error)
	// reference names what the reference side of a pair runs.
	reference() string
	// quality is the cut and the modeled speedup of the partition the
	// workload produces or runs on. Both are deterministic per seed.
	quality(e *env) (quality, error)
	// tracedOp runs one op of the traced run, a span around each layer
	// call, checks its output, and sets the layers' counters in c.
	tracedOp(e *env, o *obs.Observer, c counters) ([]string, error)
	// once runs what the traced run measures once besides its ops and
	// sets those counters in c.
	once(e *env, o *obs.Observer, c counters) ([]string, error)
}

// pairTimes are the walls of one op and of its paired reference.
type pairTimes struct{ op, ref time.Duration }

type quality struct {
	cut     int
	modeled float64
}

// counters collects the per-layer counts of the traced run by metric name.
type counters map[string]float64

// env is what set-up hands to the ops: the elaborated design and its
// gate-level hypergraph, which is the n-level partitioner's input and the
// cut-recount oracle of every workload.
type env struct {
	seed int64
	ed   *elab.Design
	flat *hypergraph.H
}

// soc generates the benchmark circuit. Generating the input is the
// benchmark's job, not the program's, so it is not timed.
func soc() *gen.Circuit { return gen.ViterbiSoC(gen.DefaultSoC) }

// setup parses and elaborates the generated Verilog text, builds the flat
// hypergraph, then runs the workload's own preparation.
func setup(w workload, c *gen.Circuit, seed int64, o *obs.Observer) (*env, error) {
	t0 := o.Start()
	e := &env{seed: seed}
	var d *verilog.Design
	if err := span(o, "verilog.parse", func() (err error) {
		d, err = verilog.Parse(c.Source)
		return err
	}); err != nil {
		return nil, err
	}
	if err := span(o, "elab.elaborate", func() (err error) {
		e.ed, err = elab.Elaborate(d, c.Top)
		return err
	}); err != nil {
		return nil, err
	}
	if err := span(o, "hypergraph.build", func() (err error) {
		e.flat, err = hypergraph.BuildFlat(e.ed)
		return err
	}); err != nil {
		return nil, err
	}
	if err := w.prepare(e, o); err != nil {
		return nil, err
	}
	o.Span(track, "setup", t0)
	return e, nil
}

// span runs f inside a span named name (a no-op span when o is nil).
func span(o *obs.Observer, name string, f func() error) error {
	t0 := o.Start()
	err := f()
	o.Span(track, name, t0)
	return err
}

// flatCut recounts the cut of a gate-to-part map on the flat hypergraph.
// Nets that stay inside a closed super-gate never cross parts, so this
// equals the cut a partitioner reports on its own (hierarchical) view.
func flatCut(e *env, k int, gateParts []int32) int {
	a := hypergraph.NewAssignment(e.flat, k)
	for g, v := range e.flat.GateVertex {
		a.Parts[v] = gateParts[g]
	}
	return hypergraph.CutSize(e.flat, a)
}

func pins(h *hypergraph.H) int {
	n := 0
	for i := range h.Edges {
		n += len(h.Edges[i].Pins)
	}
	return n
}

// checkPartition returns the problems of a partition result: a cut that
// the flat recount does not reproduce, or a broken balance constraint.
func checkPartition(e *env, what string, k, cut int, balanced bool, gateParts []int32) []string {
	var problems []string
	if n := flatCut(e, k, gateParts); n != cut {
		problems = append(problems, fmt.Sprintf("%s: reported cut %d, recount %d", what, cut, n))
	}
	if !balanced {
		problems = append(problems, what+": balance constraint not met")
	}
	return problems
}

// pairRun runs ref and op back to back in the requested order, each after
// a garbage collection, and returns their walls.
func pairRun(refFirst bool, ref, op func() error) (pairTimes, error) {
	var p pairTimes
	var err error
	if refFirst {
		if p.ref, err = timed(ref); err != nil {
			return p, err
		}
		p.op, err = timed(op)
		return p, err
	}
	if p.op, err = timed(op); err != nil {
		return p, err
	}
	p.ref, err = timed(ref)
	return p, err
}
