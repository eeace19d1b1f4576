// Command benchharness regenerates every experiment table of the
// reproduction (E1..E11 and the A1/A2 ablations; see DESIGN.md §5 and
// EXPERIMENTS.md).
//
// Usage:
//
//	benchharness [-full] [-csv] [-only E2,E6]
//
// By default it runs the quick scale; -full runs the sizes recorded in
// EXPERIMENTS.md (minutes, not seconds). Performance is measured by the
// repository benchmark (perfbench/, named in BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nochatter/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run full-scale experiments (slower)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E2,E6)")
	flag.Parse()

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	failed := false
	for _, ex := range experiments.All() {
		if len(wanted) > 0 && !wanted[ex.ID] {
			continue
		}
		start := time.Now()
		table, err := ex.Run(scale)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", ex.ID, err)
			failed = true
			continue
		}
		if *csv {
			table.RenderCSV(os.Stdout)
		} else {
			table.Render(os.Stdout)
			fmt.Printf("  (%d rows in %v)\n\n", table.Len(), wall.Round(time.Millisecond))
		}
	}
	if failed {
		os.Exit(1)
	}
}
