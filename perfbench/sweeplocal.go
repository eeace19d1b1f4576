package main

import (
	"fmt"
	"runtime"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
	"nochatter/internal/ues"
)

const (
	// sweepSpecs is the size of one sweep-local op: enough engine runs that
	// the per-op cost averages over the mix, few enough that a 30-second
	// run holds some 500 to 800 ops.
	sweepSpecs = 12
	// sweepSetups is how many times set-up runs; setup_s is the median.
	// Each repetition adds one shape set to the spec package's memo, and
	// all of them fit in its 256 entries.
	sweepSetups = 11
	// sweepTailQ is p90 and sweepWindows 3, so that each window of a
	// 30-second run holds the 100-odd ops that put ten beyond p90.
	sweepTailQ   = 0.90
	sweepWindows = 3
)

// sweepOp generates op i of sweep-local: one sweep of sweepSpecs specs
// drawn from sweepMix.
func sweepOp(seed uint64, sh *shapes, i int) ([]spec.ScenarioSpec, error) {
	return sweepMix.knownSpecs(opRNG(seed, streamSweep, i), sh, sweepSpecs)
}

// mixShapes lists every graph a mix can draw, in a fixed order.
func mixShapes(m knownMix) []spec.GraphSpec {
	var out []spec.GraphSpec
	for _, fr := range m.families {
		for _, n := range fr.sizes {
			out = append(out, spec.GraphSpec{Family: fr.family, N: n})
		}
	}
	return out
}

// warmSpec is a two-agent known-bound spec on gs: compiling it builds the
// graph's exploration sequence into the spec package's memo.
func warmSpec(gs spec.GraphSpec) spec.ScenarioSpec {
	return spec.ScenarioSpec{Graph: gs, Agents: []spec.AgentSpec{
		{Label: 1, Start: 0, Algorithm: spec.Known()},
		{Label: 2, Start: 1, Algorithm: spec.Known()},
	}}
}

// runSweepLocal measures the gathersim -sweep library path: one op is
// agg.Summarize at default parallelism over a generated sweep. Set-up is
// what a sweep pays once per process: building the exploration sequence of
// every graph shape into the memo. Each set-up repetition compiles shapes
// that differ from the others only in GraphSpec.Seed, which these families
// ignore when building the graph but the memo keys on, so every repetition
// builds its sequences cold as a fresh process would; the last repetition
// warms exactly the shapes the ops use.
func runSweepLocal(cfg config) (*report, error) {
	sh := newShapes()
	shapes := mixShapes(sweepMix)
	setups, err := timeSetups(sweepSetups, func(rep int, last bool) (time.Duration, func(), error) {
		seed := int64(sweepSetups - 1 - rep)
		warm := make([]spec.ScenarioSpec, len(shapes))
		for i, gs := range shapes {
			gs.Seed = seed
			warm[i] = warmSpec(gs)
		}
		start := time.Now()
		for _, sp := range warm {
			if _, err := sp.Compile(); err != nil {
				return 0, nil, err
			}
		}
		return time.Since(start), nil, nil
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	ls := &layers{}
	lat := newSplit()
	if cfg.trace {
		tr = newTracer()
		// Direct calls: the sequence build each set-up paid per shape.
		for _, gs := range shapes {
			g, err := spec.BuildGraph(gs)
			if err != nil {
				return nil, err
			}
			s := tr.start(-1, 0, "ues", "ues.build")
			ues.Build(g)
			tr.end(s)
		}
		ls.uesBuilds = int64(len(shapes))
	}
	runner := sim.NewRunner()
	l := closedLoop(1, warmup, cfg.duration, sweepWindows, func(_, i int, warm bool) (time.Duration, error) {
		specs, err := sweepOp(cfg.seed, sh, i)
		if err != nil {
			return 0, err
		}
		traced := !warm && tr.traces(i)
		start := time.Now()
		var sum *agg.Summary
		if traced {
			sum, err = tracedSummarize(tr, ls, runner, i, specs)
		} else {
			sum, err = agg.Summarize(runner, specs)
		}
		took := time.Since(start)
		if tr != nil && !warm {
			lat.add(traced, took)
		}
		if err != nil {
			return took, err
		}
		if traced {
			c := tr.start(-1, 0, "agg", "agg.canonical")
			buf, err := sum.CanonicalJSON()
			tr.end(c)
			if err != nil {
				return took, err
			}
			ls.add(&ls.canonicalBytes, int64(len(buf)))
		}
		return took, checkSummary(sum, len(specs))
	})
	rep := newReport()
	if tr == nil {
		rep.endToEnd(l, setups, sweepTailQ)
	} else {
		rep.perLayer(l, tr, ls, lat, 0)
	}
	return rep, nil
}

// tracedSummarize is agg.Summarize taken apart into its public calls —
// spec.ScenarioSpec.Compile per spec, as spec.CompileAll does, then
// sim.FoldBatch folding agg.Summary.Observe and
// merging with agg.Summary.Merge, as agg.SummarizeScenarios does — with a
// span around each. A run's span is rebuilt from BatchResult.Wall: the
// pool calls the fold on the worker that ran the scenario, right after
// the run returns.
func tracedSummarize(tr *tracer, ls *layers, runner *sim.Runner, op int, specs []spec.ScenarioSpec) (*agg.Summary, error) {
	root := tr.start(op, 0, "op", "op")
	defer tr.end(root)
	scs := make([]sim.Scenario, len(specs))
	for k, sp := range specs {
		c := tr.start(op, root.ID, "spec", "spec.compile")
		sc, err := sp.Compile()
		tr.end(c)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", k, err)
		}
		scs[k] = sc
	}
	pool := tr.start(op, root.ID, "pool", "sim.pool")
	var busy int64
	sum := sim.FoldBatch(runner, scs, agg.NewSummary, func(acc *agg.Summary, br sim.BatchResult) {
		end := time.Now()
		tr.record(span{ID: tr.ids.Add(1), Parent: pool.ID, Op: op, Layer: "sim", Name: "sim.run",
			Start: tr.at(end.Add(-br.Wall)), End: tr.at(end)})
		ls.run(br.Result, br.Err)
		f := tr.start(op, pool.ID, "agg", "agg.fold")
		acc.Observe(agg.KeyOf(specs[br.Index]), br.Result, br.Err, br.Wall)
		tr.end(f)
		ls.add(&busy, int64(br.Wall)+int64(time.Since(end)))
	}, func(dst, src *agg.Summary) {
		m := tr.start(op, pool.ID, "agg", "agg.merge")
		dst.Merge(src)
		tr.end(m)
	})
	pool = tr.end(pool)
	ls.add(&ls.poolBusyNs, busy)
	ls.add(&ls.poolSlotsNs, pool.dur()*int64(min(runtime.GOMAXPROCS(0), len(scs))))
	return sum, nil
}

// checkSummary is the output check of a sweep op: every spec sent was run
// (else the output is wrong) and every run gathered (else the op failed).
func checkSummary(sum *agg.Summary, specs int) error {
	t := sum.Total
	switch {
	case t.Runs != int64(specs):
		return wrongf("summary counts %d runs, want %d", t.Runs, specs)
	case t.Gathered != t.Runs:
		return fmt.Errorf("%d of %d runs gathered (%d errors)", t.Gathered, t.Runs, t.Errors)
	}
	return nil
}
