// Runnable, output-verified examples of the façade: the quickstart snippets
// godoc shows for running a single scenario as data, batching a sweep, and
// summarizing one with the streaming reducers. Each // Output block is
// checked by go test, so these stay correct by construction.
package nochatter_test

import (
	"fmt"

	"nochatter"
)

// ExampleScenarioSpec_Run runs one scenario described as pure data: two
// agents on an 8-ring gathering under a known upper bound on the size.
func ExampleScenarioSpec_Run() {
	res, err := nochatter.ScenarioSpec{
		Graph: nochatter.GraphSpec{Family: "ring", N: 8},
		Agents: []nochatter.SpecAgent{
			{Label: 23, Start: 0, Algorithm: nochatter.KnownAlgorithm()},
			{Label: 8, Start: 4, Algorithm: nochatter.KnownAlgorithm()},
		},
	}.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("gathered:", res.AllHaltedTogether())
	fmt.Println("leader:", res.Agents[0].Report.Leader)
	// Output:
	// gathered: true
	// leader: 8
}

// ExampleSweepDef declares a sweep — a families × sizes product with one
// two-agent team — and expands it into specs. Every spec is pure data;
// nothing has run yet.
func ExampleSweepDef() {
	specs, err := nochatter.SweepDef{
		Families: []string{"ring", "path"},
		Sizes:    []int{6, 8},
		Teams:    []nochatter.SweepTeam{{Labels: []int{1, 2}}},
		Name:     "demo-{family}-n{n}",
	}.Specs()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, sp := range specs {
		fmt.Println(sp.Name)
	}
	// Output:
	// demo-ring-n6
	// demo-ring-n8
	// demo-path-n6
	// demo-path-n8
}

// ExampleRunBatch compiles a sweep's specs and runs them on the parallel
// worker pool; results arrive in input order and parallelism never changes
// them.
func ExampleRunBatch() {
	specs, err := nochatter.SweepDef{
		Families: []string{"ring"},
		Sizes:    []int{4, 6, 8},
		Teams:    []nochatter.SweepTeam{{Labels: []int{1, 2}}},
		Name:     "ring-n{n}",
	}.Specs()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	scenarios, err := nochatter.CompileSpecs(specs)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, br := range nochatter.RunBatch(scenarios, nochatter.WithParallelism(3)) {
		if br.Err != nil {
			fmt.Println("error:", br.Err)
			continue
		}
		fmt.Printf("%s: gathered in round %d\n", specs[br.Index].Name, br.Result.Rounds)
	}
	// Output:
	// ring-n4: gathered in round 4033
	// ring-n6: gathered in round 6722
	// ring-n8: gathered in round 9411
}

// ExampleSummarize folds a whole sweep into a streaming summary — counts
// and histogram percentiles per group — without materializing the results.
// The summary is bit-identical for any parallelism.
func ExampleSummarize() {
	specs, err := nochatter.SweepDef{
		Families: []string{"ring", "path"},
		Sizes:    []int{6, 8, 10},
		Teams:    []nochatter.SweepTeam{{Labels: []int{1, 2}}},
	}.Specs()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	summary, err := nochatter.Summarize(nochatter.NewRunner(nochatter.WithParallelism(4)), specs)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("runs: %d, gathered: %d\n", summary.Total.Runs, summary.Total.Gathered)
	fmt.Printf("median gather round: %.0f\n", summary.Total.Rounds.Quantile(0.5))
	for _, g := range summary.Groups() {
		fmt.Printf("%s n=%d: rounds p50 %.0f, moves p50 %.0f\n",
			g.Family, g.N, g.Rounds.Quantile(0.5), g.Moves.Quantile(0.5))
	}
	// Output:
	// runs: 6, gathered: 6
	// median gather round: 11264
	// path n=6: rounds p50 12098, moves p50 3459
	// path n=8: rounds p50 12429, moves p50 3696
	// path n=10: rounds p50 22852, moves p50 6533
	// ring n=6: rounds p50 6722, moves p50 1923
	// ring n=8: rounds p50 9411, moves p50 2692
	// ring n=10: rounds p50 12100, moves p50 3461
}
