package agg

import (
	"math"

	"nochatter/internal/trace"
)

// Table renders the summary as the shared reporting table gathersim
// (-summary) and examples/batchsweep print: one row per group in sorted key order
// plus a TOTAL row, with the round/stepped/move percentiles and the mean
// wall time per run in milliseconds.
func (s *Summary) Table(title string) *trace.Table {
	t := trace.NewTable(title,
		"family", "n", "k", "algo", "runs", "gathered", "errors",
		"rounds_p50", "rounds_p90", "rounds_p99",
		"stepped_p50", "moves_p50", "wall_ms_mean")
	row := func(family string, n, k any, algo string, c *Cell) {
		t.AddRow(family, n, k, algo, c.Runs, c.Gathered, c.Errors,
			round3(c.Rounds.Quantile(0.50)),
			round3(c.Rounds.Quantile(0.90)),
			round3(c.Rounds.Quantile(0.99)),
			round3(c.Stepped.Quantile(0.50)),
			round3(c.Moves.Quantile(0.50)),
			round3(c.Wall.Mean()/1e6))
	}
	for _, g := range s.Groups() {
		cell := g.Cell
		row(g.Family, g.N, g.K, g.Algo, &cell)
	}
	row("TOTAL", "-", "-", "-", &s.Total)
	return t
}

// round3 truncates a float to three decimals for table rendering (not part
// of any canonical encoding).
func round3(f float64) float64 { return math.Round(f*1000) / 1000 }
