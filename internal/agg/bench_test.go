package agg

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// fleetSummary folds n two-agent randomized-rendezvous specs on the small
// rings, paths and complete graphs a fleet sweep runs: n = 1 is a chunk's
// summary as the fleet planner cuts a 12-spec sweep, n = 12 the whole
// sweep's.
func fleetSummary(tb testing.TB, n int) *Summary {
	tb.Helper()
	shapes := []spec.GraphSpec{
		{Family: "ring", N: 4}, {Family: "ring", N: 5}, {Family: "ring", N: 6},
		{Family: "path", N: 4}, {Family: "path", N: 5}, {Family: "path", N: 6},
		{Family: "complete", N: 4}, {Family: "complete", N: 5},
	}
	r := rand.New(rand.NewPCG(24, uint64(n)))
	specs := make([]spec.ScenarioSpec, n)
	for i := range specs {
		g := shapes[r.IntN(len(shapes))]
		seed := r.Uint64()
		specs[i] = spec.ScenarioSpec{Graph: g, Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Randomized(seed, 0)},
			{Label: 2, Start: 1 + r.IntN(g.N-1), Algorithm: spec.Randomized(seed, 0)},
		}}
	}
	sum, err := Summarize(sim.NewRunner(sim.WithParallelism(1)), specs)
	if err != nil {
		tb.Fatal(err)
	}
	return sum
}

// BenchmarkSummaryCodec measures the summary wire form as its own layer:
// MarshalJSON (a worker's reply, the journal's terminal record),
// CanonicalJSON (the journal's chunk record, the ?canonical=1 body) and
// UnmarshalJSON (the coordinator reading a chunk, a journal replay, a
// client reading a summary), on a one-spec chunk's summary and a 12-spec
// sweep's.
func BenchmarkSummaryCodec(b *testing.B) {
	for _, n := range []int{1, 12} {
		sum := fleetSummary(b, n)
		doc, err := sum.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		size := int64(len(doc))
		b.Run(fmt.Sprintf("specs=%d/MarshalJSON", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for b.Loop() {
				if _, err := sum.MarshalJSON(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("specs=%d/CanonicalJSON", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for b.Loop() {
				if _, err := sum.CanonicalJSON(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("specs=%d/UnmarshalJSON", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for b.Loop() {
				var back Summary
				if err := back.UnmarshalJSON(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
