package sched

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// FuzzPlan feeds arbitrary cost vectors and configurations to the planner
// and checks the structural invariants plus determinism: chunks exactly
// tile [0, n), none is empty, and re-planning the same inputs yields a
// bit-identical plan.
func FuzzPlan(f *testing.F) {
	f.Add(uint64(1), 10, 2, 4)
	f.Add(uint64(42), 1, 1, 1)
	f.Add(uint64(7), 200, 5, 8)
	f.Add(uint64(99), 33, 16, 1)
	f.Add(uint64(3), 64, 3, 64)
	f.Fuzz(func(t *testing.T, seed uint64, n, workers, cpw int) {
		if n < 0 || n > 2000 {
			t.Skip()
		}
		if workers < -2 || workers > 64 || cpw < -2 || cpw > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 0xdecade))
		costs := make([]int64, n)
		for i := range costs {
			switch rng.IntN(4) {
			case 0:
				costs[i] = rng.Int64N(1000) + 1
			case 1:
				costs[i] = rng.Int64() // includes negatives and huge values
			case 2:
				costs[i] = 0
			default:
				costs[i] = int64(1) << uint(rng.IntN(45))
			}
		}
		p := Planner{ChunksPerWorker: cpw}
		chunks := p.Plan(costs, workers)
		checkTiling(t, chunks, costs)
		if again := p.Plan(costs, workers); !reflect.DeepEqual(chunks, again) {
			t.Fatalf("plan is not a deterministic fixed point")
		}
	})
}
