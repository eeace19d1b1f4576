// Package sched mirrors the real planner package's import path, so the
// purity seed roots (Planner.Plan, Planner.PlanSpecs, DefaultCost) apply
// to it.
package sched

import "nochatter/internal/sched/costdep"

// Planner mirrors the real planner type.
type Planner struct {
	Model func(int) int64
}

// Chunk mirrors the real chunk type.
type Chunk struct{ Lo, Hi int }

// Plan is a seed root whose impurity lives one package away: the facts
// engine must see costdep.NowUnix through the import boundary.
func (p Planner) Plan(costs []int64, workers int) []Chunk {
	skew := costdep.NowUnix() // want `Planner.Plan is a determinism seed root but is impure: calls costdep.NowUnix, which is impure: reads the wall clock`
	_ = skew
	return nil
}

// DefaultCost is a seed root whose impurity hides one in-package call
// deep.
func DefaultCost(c int64) int64 {
	return c + skew() // want `DefaultCost is a determinism seed root but is impure: calls skew, which is impure: calls costdep.NowUnix, which is impure: reads the wall clock`
}

// skew is the in-package helper hiding the ambient read.
func skew() int64 { // want-fact `impure: calls costdep.NowUnix, which is impure: reads the wall clock`
	return costdep.NowUnix() % 3
}

// PlanSpecs is a seed root with an unprovable dynamic call that has been
// audited: the allow stops the impurity at the source.
func (p Planner) PlanSpecs(n int, workers int) []Chunk {
	costs := make([]int64, n)
	for i := range costs {
		//lint:allow purity fixture: the model contract requires purity of its implementations
		costs[i] = p.Model(i)
	}
	return StaticPlan(len(costs), workers)
}

// StaticPlan is not a seed root, but PlanSpecs calls it; it is genuinely
// pure, so the seed root stays clean: no finding.
func StaticPlan(n, workers int) []Chunk {
	per := (n + workers - 1) / workers
	var out []Chunk
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, Chunk{Lo: lo, Hi: hi})
	}
	return out
}

// pureUser calls the dependency's pure function; nothing to report.
func pureUser() int64 { return costdep.Fixed() }
