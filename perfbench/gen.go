package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"nochatter/internal/bits"
	"nochatter/internal/gather"
	"nochatter/internal/graph"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
	"nochatter/internal/ues"
)

// Every input of a run is generated here from the --seed flag, before any
// timer starts; the programs under test receive only the generated specs.
// Each workload draws from its own PCG stream, so adding draws to one
// workload's generator never shifts another's inputs.
const (
	streamSweep uint64 = iota + 1
	streamHot
	streamFill
	streamMiss
	streamFleet
	streamHistory
)

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// opRNG is the generator of op i of a stream: ops are generated on demand,
// and op i is the same in every run with the same seed.
func opRNG(seed, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<32|uint64(i)))
}

// sizeRange is one graph family with the size parameters drawn for it.
type sizeRange struct {
	family string
	sizes  []int
}

// knownMix describes a population of known-bound (Algorithm 3) specs. All
// ranges are fixed, so the cost of a generated spec is drawn from one
// stationary distribution for the whole run.
type knownMix struct {
	families []sizeRange
	teamMin  int
	teamMax  int
	labelMax int // labels are distinct draws from [1, labelMax]
}

// sweepMix is the sweep-local population: five families, teams of 2–4
// with random labels, and simultaneous or dormant wakes. It draws no
// delayed wakes: those reach the known defect (see defectSpecs), and the
// measured ops are ones the program completes.
var sweepMix = knownMix{
	families: []sizeRange{
		{"ring", []int{6, 8, 10, 12, 14, 16}},
		{"grid", []int{6, 8, 9, 12, 16}},
		{"star", []int{5, 6, 8, 10}},
		{"barbell", []int{3, 4, 5}},
		{"complete", []int{4, 5, 6, 8}},
	},
	teamMin:  2,
	teamMax:  4,
	labelMax: 64,
}

// knownSpec draws one known-bound spec from the mix. Its round budget is
// the explicit bound of Theorem 3.1 for the drawn graph and labels: a run
// that does not declare within the bound is a failed run, whatever the
// cause, and costs about as much as a successful one instead of running to
// the engine's default cap.
func (m knownMix) knownSpec(r *rand.Rand, sh *shapes) (spec.ScenarioSpec, error) {
	fr := m.families[r.IntN(len(m.families))]
	gs := spec.GraphSpec{Family: fr.family, N: fr.sizes[r.IntN(len(fr.sizes))]}
	shp, err := sh.get(gs)
	if err != nil {
		return spec.ScenarioSpec{}, err
	}
	g := shp.g
	k := m.teamMin + r.IntN(m.teamMax-m.teamMin+1)
	if k > g.N() {
		k = g.N()
	}
	labels := distinct(r, k, m.labelMax, 1)
	starts := distinct(r, k, g.N(), 0)
	wakes := wakes(r, k)
	agents := make([]spec.AgentSpec, k)
	for i := range agents {
		agents[i] = spec.AgentSpec{Label: labels[i], Start: starts[i], Wake: wakes[i], Algorithm: spec.Known()}
	}
	return boundedKnown(shp, gs, agents), nil
}

// boundedKnown is a known-bound spec whose round budget is Theorem 3.1's
// bound for its graph and labels.
func boundedKnown(shp *shape, gs spec.GraphSpec, agents []spec.AgentSpec) spec.ScenarioSpec {
	smallest := agents[0].Label
	for _, a := range agents[1:] {
		smallest = min(smallest, a.Label)
	}
	return spec.ScenarioSpec{Graph: gs, Agents: agents, MaxRounds: shp.theorem31Bound(smallest)}
}

// wakes draws one wake schedule: simultaneous, or with dormant agents that
// only a visitor wakes. One agent always wakes at round 0, as the model
// requires.
func wakes(r *rand.Rand, k int) []int {
	w := make([]int, k)
	dormant := r.IntN(2) == 1
	first := r.IntN(k)
	for i := range w {
		if dormant && i != first && r.IntN(2) == 0 {
			w[i] = sim.DormantUntilVisited
		}
	}
	return w
}

// distinct returns k distinct values drawn uniformly from [lo, lo+n).
func distinct(r *rand.Rand, k, n, lo int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := lo + r.IntN(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// shape is one graph of a mix with its exploration-sequence timing.
type shape struct {
	g  *graph.Graph
	tm gather.Timing
}

// shapes memoizes graphs and sequences for input generation. It builds
// sequences directly rather than through the spec package, so generating
// inputs does not warm the memo that set-up is timed on.
type shapes struct {
	mu sync.Mutex
	m  map[spec.GraphSpec]*shape
}

func newShapes() *shapes { return &shapes{m: map[spec.GraphSpec]*shape{}} }

func (sh *shapes) get(gs spec.GraphSpec) (*shape, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.m[gs]; ok {
		return s, nil
	}
	g, err := spec.BuildGraph(gs)
	if err != nil {
		return nil, err
	}
	s := &shape{g: g, tm: gather.Timing{Seq: ues.Build(g)}}
	sh.m[gs] = s
	return s, nil
}

// theorem31Bound is the explicit time bound from the proof of Theorem 3.1:
// with i* = ⌊log N⌋ + 2ℓ + 2, every run declares within
// (i* + 2)·(4·D_{i*+1} + (5·i* + 6)·T(EXPLO)) rounds of the earliest wake,
// ℓ being the bit length of the smallest label.
func (s *shape) theorem31Bound(smallestLabel int) int {
	logN := 0
	for v := s.g.N(); v > 1; v >>= 1 {
		logN++
	}
	iStar := logN + 2*len(bits.Bin(smallestLabel)) + 2
	return (iStar + 2) * (4*s.tm.D(iStar+1) + (5*iStar+6)*s.tm.TExplo())
}

// knownSpecs draws n specs from the mix.
func (m knownMix) knownSpecs(r *rand.Rand, sh *shapes, n int) ([]spec.ScenarioSpec, error) {
	out := make([]spec.ScenarioSpec, n)
	for i := range out {
		sp, err := m.knownSpec(r, sh)
		if err != nil {
			return nil, fmt.Errorf("generating spec %d: %w", i, err)
		}
		out[i] = sp
	}
	return out, nil
}

// rendezvousShapes are the graphs randomized-rendezvous specs run on:
// small enough that a run is a short engine pass.
var rendezvousShapes = []sizeRange{
	{"ring", []int{4, 5, 6}},
	{"path", []int{4, 5, 6}},
	{"complete", []int{4, 5}},
}

// rendezvousSpec draws a two-agent randomized-rendezvous spec. Its fresh
// 64-bit walk seed makes it a spec no earlier request sent: the cache-miss
// traffic of gatherd-mixed and the cheap sweeps of fleet-sweeps.
func rendezvousSpec(r *rand.Rand) spec.ScenarioSpec {
	fr := rendezvousShapes[r.IntN(len(rendezvousShapes))]
	n := fr.sizes[r.IntN(len(fr.sizes))]
	seed := r.Uint64()
	starts := distinct(r, 2, n, 0)
	return spec.ScenarioSpec{
		Graph: spec.GraphSpec{Family: fr.family, N: n},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: starts[0], Algorithm: spec.Randomized(seed, 0)},
			{Label: 2, Start: starts[1], Algorithm: spec.Randomized(seed, 0)},
		},
	}
}
