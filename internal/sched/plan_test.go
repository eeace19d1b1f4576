package sched

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"nochatter/internal/spec"
)

// checkTiling asserts the planner's structural invariants: chunks exactly
// tile [0, n) in order with no gaps or overlap, every chunk is non-empty,
// indices match slice positions, and costs sum the clamped spec costs.
func checkTiling(t *testing.T, chunks []Chunk, costs []int64) {
	t.Helper()
	n := len(costs)
	if n == 0 {
		if len(chunks) != 0 {
			t.Fatalf("expected nil plan for 0 specs, got %d chunks", len(chunks))
		}
		return
	}
	if len(chunks) == 0 {
		t.Fatalf("empty plan for %d specs", n)
	}
	next := 0
	for i, c := range chunks {
		if c.Index != i {
			t.Fatalf("chunk %d has Index %d", i, c.Index)
		}
		if c.Lo != next {
			t.Fatalf("chunk %d starts at %d, want %d (gap or overlap)", i, c.Lo, next)
		}
		if c.Hi <= c.Lo {
			t.Fatalf("chunk %d is empty: [%d, %d)", i, c.Lo, c.Hi)
		}
		var want int64
		for s := c.Lo; s < c.Hi; s++ {
			want += clampCost(costs[s])
		}
		if c.Cost != want {
			t.Fatalf("chunk %d cost = %d, want %d", i, c.Cost, want)
		}
		next = c.Hi
	}
	if next != n {
		t.Fatalf("plan covers [0, %d), want [0, %d)", next, n)
	}
}

// costPattern generates the cost shapes the exhaustive sweep runs over.
func costPattern(kind string, n int) []int64 {
	costs := make([]int64, n)
	rng := rand.New(rand.NewPCG(uint64(n), 42))
	for i := range costs {
		switch kind {
		case "uniform":
			costs[i] = 1000
		case "ramp":
			costs[i] = int64(1 + i*500)
		case "geometric":
			costs[i] = int64(1) << uint(i%30)
		case "monster":
			costs[i] = 100
			if i == n/2 {
				costs[i] = 1 << 30
			}
		case "random":
			costs[i] = rng.Int64N(100000) + 1
		case "hostile":
			// Out-of-range values the clamp must absorb.
			switch i % 3 {
			case 0:
				costs[i] = -5
			case 1:
				costs[i] = 0
			default:
				costs[i] = maxSpecCost * 2
			}
		}
	}
	return costs
}

// TestPlanTilesExhaustive sweeps small n × workers × chunks-per-worker ×
// cost shapes and checks every plan's structural invariants, plus the
// chunk-count bound when no per-chunk spec cap forces extra splits.
func TestPlanTilesExhaustive(t *testing.T) {
	kinds := []string{"uniform", "ramp", "geometric", "monster", "random", "hostile"}
	for n := 0; n <= 41; n++ {
		for workers := 1; workers <= 6; workers++ {
			for cpw := 1; cpw <= 4; cpw++ {
				for _, kind := range kinds {
					costs := costPattern(kind, n)
					p := Planner{ChunksPerWorker: cpw}
					chunks := p.Plan(costs, workers)
					checkTiling(t, chunks, costs)
					target := workers * cpw
					if target > n {
						target = n
					}
					if n > 0 && len(chunks) > target {
						t.Fatalf("n=%d workers=%d cpw=%d kind=%s: %d chunks exceeds target %d",
							n, workers, cpw, kind, len(chunks), target)
					}
				}
			}
		}
	}
}

// TestPlanDeterministicFixedPoint re-plans identical inputs and demands
// identical output — the plan is a pure function of (costs, config,
// workers), never of iteration order, timing or prior plans.
func TestPlanDeterministicFixedPoint(t *testing.T) {
	for _, kind := range []string{"ramp", "monster", "random"} {
		costs := costPattern(kind, 37)
		p := Planner{ChunksPerWorker: 3}
		first := p.Plan(costs, 4)
		for i := 0; i < 5; i++ {
			again := p.Plan(costs, 4)
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("kind=%s: plan changed between identical calls:\n%v\n%v", kind, first, again)
			}
		}
	}
}

// TestPlanMonsterIsolated checks the re-balancing property: a spec worth
// many fair shares occupies a chunk alone, and the cheap specs around it
// still spread over the remaining chunks.
func TestPlanMonsterIsolated(t *testing.T) {
	costs := costPattern("monster", 33)
	chunks := Planner{ChunksPerWorker: 4}.Plan(costs, 4)
	checkTiling(t, chunks, costs)
	for _, c := range chunks {
		if c.Lo <= 16 && 16 < c.Hi && c.Specs() != 1 {
			t.Fatalf("monster spec 16 shares chunk [%d,%d) with %d cheap specs",
				c.Lo, c.Hi, c.Specs()-1)
		}
	}
	if len(chunks) < 8 {
		t.Fatalf("only %d chunks; the monster's cost collapsed the budget for the rest", len(chunks))
	}
}

func TestPlanBalance(t *testing.T) {
	// With uniform costs and an even split, no chunk should exceed twice
	// the ideal share (the adaptive budget guarantees far better, but pin
	// a loose bound so regressions surface).
	costs := costPattern("uniform", 64)
	chunks := Planner{ChunksPerWorker: 4}.Plan(costs, 4)
	checkTiling(t, chunks, costs)
	ideal := int64(64*1000) / 16
	for _, c := range chunks {
		if c.Cost > 2*ideal {
			t.Fatalf("chunk %d cost %d exceeds 2× ideal share %d", c.Index, c.Cost, ideal)
		}
	}
}

// TestStaticBounds pins the home-queue partition: contiguous, exhaustive
// and non-overlapping for any (n, shards), with shard sizes differing by
// at most one.
func TestStaticBounds(t *testing.T) {
	ns := []int{100, 101, 108}
	for n := 0; n <= 25; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for shards := 1; shards <= 9; shards++ {
			next, minSz, maxSz := 0, n, 0
			for i := 0; i < shards; i++ {
				lo, hi := StaticBounds(n, shards, i)
				if lo != next || hi < lo {
					t.Fatalf("n=%d shards=%d i=%d: bounds [%d,%d), want lo=%d", n, shards, i, lo, hi, next)
				}
				minSz, maxSz = min(minSz, hi-lo), max(maxSz, hi-lo)
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: shards cover [0,%d)", n, shards, next)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("n=%d shards=%d: shard sizes range %d..%d, want spread <= 1", n, shards, minSz, maxSz)
			}
		}
	}
}

// TestPlanSpecsCostOrdering checks the model feeds through: a sweep mixing
// cheap rings with expensive barbells must give the barbell region more,
// smaller chunks than an equal-count split would.
func TestPlanSpecsCostOrdering(t *testing.T) {
	var specs []spec.ScenarioSpec
	for i := 0; i < 12; i++ {
		specs = append(specs, spec.ScenarioSpec{
			Name:  fmt.Sprintf("ring-%d", i),
			Graph: spec.GraphSpec{Family: "ring", N: 6},
			Agents: []spec.AgentSpec{
				{Label: 1, Start: 0, Algorithm: spec.Known()},
				{Label: 2, Start: 3, Algorithm: spec.Known()},
			},
		})
	}
	for i := 0; i < 12; i++ {
		specs = append(specs, spec.ScenarioSpec{
			Name:  fmt.Sprintf("barbell-%d", i),
			Graph: spec.GraphSpec{Family: "barbell", N: 32},
			Agents: []spec.AgentSpec{
				{Label: 1, Start: 0, Algorithm: spec.Known()},
				{Label: 2, Start: 16, Algorithm: spec.Known()},
			},
		})
	}
	chunks := Planner{ChunksPerWorker: 4}.PlanSpecs(specs, 2)
	var ringChunks, barbellChunks int
	for _, c := range chunks {
		if c.Hi <= 12 {
			ringChunks++
		}
		if c.Lo >= 12 {
			barbellChunks++
		}
	}
	if barbellChunks <= ringChunks {
		t.Fatalf("barbell half got %d chunks vs ring half's %d; cost model not applied (plan %v)",
			barbellChunks, ringChunks, chunks)
	}
}

func testSpecs(n int) []spec.ScenarioSpec {
	specs := make([]spec.ScenarioSpec, n)
	for i := range specs {
		specs[i] = spec.ScenarioSpec{
			Name:  fmt.Sprintf("s%d", i),
			Graph: spec.GraphSpec{Family: "ring", N: 6 + i%4},
			Agents: []spec.AgentSpec{
				{Label: 1, Start: 0, Algorithm: spec.Known()},
				{Label: 2, Start: 2, Algorithm: spec.Known()},
			},
		}
	}
	return specs
}
