package sched

import "nochatter/internal/spec"

// Planner turns an expanded spec list into a deterministic chunk plan.
// The zero value is ready to use: DefaultChunksPerWorker chunks per
// worker, costs from DefaultCost.
type Planner struct {
	// ChunksPerWorker is the target chunk count per worker (≤0 selects
	// DefaultChunksPerWorker). More chunks steal at a finer grain; fewer
	// amortize submission overhead over more specs.
	ChunksPerWorker int
}

// PlanSpecs plans the spec list for the given worker count. The plan is a
// pure function of (specs, planner configuration, workers): same inputs,
// bit-identical plan, on any process — the property the property/fuzz
// tests pin down.
func (p Planner) PlanSpecs(specs []spec.ScenarioSpec, workers int) []Chunk {
	costs := make([]int64, len(specs))
	for i, sp := range specs {
		costs[i] = DefaultCost(sp)
	}
	return p.Plan(costs, workers)
}

// Plan partitions n = len(costs) specs into at most
// workers × ChunksPerWorker contiguous, non-empty chunks whose predicted
// costs are balanced: each chunk takes specs while it fits within a fair
// share — the remaining cost divided by the remaining chunk budget,
// recomputed after every cut, so a spec the model prices at many shares
// (a monster) occupies a chunk alone and the remaining budget re-balances
// around it. Integer arithmetic only; costs are clamped to [1,
// maxSpecCost] so budgets cannot overflow and chunks cannot be empty.
//
// Invariants (tested exhaustively and by fuzzing): chunks exactly tile
// [0, n) in order with no overlap; every chunk is non-empty; Index is the
// position in the returned slice; Cost is the sum of the chunk's clamped
// spec costs; the chunk count is at most max(1, workers×ChunksPerWorker)
// and never exceeds n.
func (p Planner) Plan(costs []int64, workers int) []Chunk {
	n := len(costs)
	if n == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	cpw := p.ChunksPerWorker
	if cpw <= 0 {
		cpw = DefaultChunksPerWorker
	}
	target := workers * cpw
	if target > n {
		target = n
	}

	total := int64(0)
	for _, c := range costs {
		total += clampCost(c)
	}

	chunks := make([]Chunk, 0, target)
	rem, remChunks := total, target
	for i := 0; i < n; {
		if remChunks < 1 {
			remChunks = 1
		}
		budget := (rem + int64(remChunks) - 1) / int64(remChunks) // ceil of the fair share
		lo, acc := i, clampCost(costs[i])
		i++
		for i < n && acc+clampCost(costs[i]) <= budget {
			acc += clampCost(costs[i])
			i++
		}
		chunks = append(chunks, Chunk{Index: len(chunks), Lo: lo, Hi: i, Cost: acc})
		rem -= acc
		remChunks--
	}
	return chunks
}
