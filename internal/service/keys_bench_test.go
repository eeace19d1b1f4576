package service

import (
	"testing"

	"nochatter/internal/spec"
)

// benchSpecs are the two spec shapes a gatherd serves most: a Go-built
// three-agent known-bound spec, and a randomized spec parsed from JSON,
// whose seed arrives as a json.Number.
func benchSpecs(b *testing.B) (known, parsed spec.ScenarioSpec) {
	parsed, err := spec.Parse([]byte(`{"name":"randomized-parsed","graph":{"family":"ring","n":12},"agents":[
		{"label":3,"start":0,"algorithm":{"name":"randomized","params":{"seed":18446744073709551557}}},
		{"label":9,"start":6,"algorithm":{"name":"randomized","params":{"horizon":5000,"seed":12345}}}],
		"max_rounds":100000}`))
	if err != nil {
		b.Fatal(err)
	}
	known = spec.ScenarioSpec{
		Name:  "known-3",
		Graph: spec.GraphSpec{Family: "grid", N: 12},
		Agents: []spec.AgentSpec{
			{Label: 17, Start: 0, Algorithm: spec.Known()},
			{Label: 42, Start: 5, Wake: -1, Algorithm: spec.Known()},
			{Label: 63, Start: 11, Algorithm: spec.Known()},
		},
		MaxRounds: 250000,
	}
	return known, parsed
}

// BenchmarkSpecKey is the per-request cost of a content address: the
// canonical encoding and its SHA-256.
func BenchmarkSpecKey(b *testing.B) {
	known, parsed := benchSpecs(b)
	for _, sp := range []spec.ScenarioSpec{known, parsed} {
		b.Run(sp.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := SpecKey(sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepSummaryKey keys a 12-spec chunk, the size of one fleet op.
func BenchmarkSweepSummaryKey(b *testing.B) {
	sp, _ := benchSpecs(b)
	specs := make([]spec.ScenarioSpec, 12)
	for i := range specs {
		specs[i] = sp
		specs[i].Graph.N = 6 + i
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := SweepSummaryKey(specs); err != nil {
			b.Fatal(err)
		}
	}
}
