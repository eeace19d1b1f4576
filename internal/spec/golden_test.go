package spec_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"maps"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"

	"nochatter/internal/agg"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
	"nochatter/internal/unknown"
)

var updateGolden = flag.Bool("update", false, "rewrite the digests in testdata from the current code")

const goldenDigestFile = "testdata/golden_digest.txt"

// goldenFamilies are the sweep-local families and sizes: the graphs the
// known-bound part of the corpus draws from.
var goldenFamilies = []struct {
	family string
	sizes  []int
}{
	{"ring", []int{6, 8, 10, 12, 14, 16}},
	{"grid", []int{6, 8, 9, 12, 16}},
	{"star", []int{5, 6, 8, 10}},
	{"barbell", []int{3, 4, 5}},
	{"complete", []int{4, 5, 6, 8}},
}

// goldenEntry is one run of the corpus: a spec, or an unknown-bound
// scenario built directly.
type goldenEntry struct {
	name string
	part string // the digest part it is logged under
	sp   *spec.ScenarioSpec
	sc   func() sim.Scenario
}

// goldenCorpus builds the fixed corpus. Every draw comes from one seeded
// PCG stream, so the corpus is the same in every run.
func goldenCorpus(t *testing.T) (entries []goldenEntry, known []spec.ScenarioSpec) {
	r := rand.New(rand.NewPCG(2020, 16))
	distinct := func(k, n, lo int) []int {
		seen := map[int]bool{}
		var out []int
		for len(out) < k {
			if v := lo + r.IntN(n); !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	// wakes draws a schedule of the given kind; agent first wakes at 0.
	wakes := func(kind string, k int) []int {
		w := make([]int, k)
		first := r.IntN(k)
		for i := range w {
			if i == first {
				continue
			}
			delayed := 1 + r.IntN(40)
			switch kind {
			case "delayed":
				w[i] = delayed
			case "dormant":
				w[i] = sim.DormantUntilVisited
			case "mixed":
				w[i] = []int{0, delayed, sim.DormantUntilVisited}[r.IntN(3)]
			}
		}
		return w
	}
	team := func(algo func() spec.AlgorithmSpec, kind string, k, n, labelMax int) []spec.AgentSpec {
		labels := distinct(k, labelMax, 1)
		starts := distinct(k, n, 0)
		w := wakes(kind, k)
		agents := make([]spec.AgentSpec, k)
		for i := range agents {
			agents[i] = spec.AgentSpec{Label: labels[i], Start: starts[i], Wake: w[i], Algorithm: algo()}
		}
		return agents
	}
	add := func(sp spec.ScenarioSpec) {
		sp.Name = fmt.Sprintf("%d", len(entries))
		entries = append(entries, goldenEntry{name: sp.Name, part: sp.Agents[0].Algorithm.Name, sp: &sp})
	}
	kinds := []string{"simultaneous", "delayed", "dormant", "mixed"}

	// Known-bound specs: every family and size, every wake kind, twelve
	// teams each, at the default round cap.
	for _, f := range goldenFamilies {
		for _, n := range f.sizes {
			for _, kind := range kinds {
				for range 12 {
					gs := spec.GraphSpec{Family: f.family, N: n}
					g, err := spec.BuildGraph(gs)
					if err != nil {
						t.Fatal(err)
					}
					k := min(2+r.IntN(3), g.N())
					sp := spec.ScenarioSpec{Graph: gs, Agents: team(spec.Known, kind, k, g.N(), 64)}
					add(sp)
					known = append(known, sp)
				}
			}
		}
	}

	small := []spec.GraphSpec{
		{Family: "ring", N: 4}, {Family: "ring", N: 5}, {Family: "path", N: 4},
		{Family: "path", N: 5}, {Family: "star", N: 4}, {Family: "two"},
	}
	bitString := func() string {
		b := make([]byte, 1+r.IntN(4))
		for i := range b {
			b[i] = "01"[r.IntN(2)]
		}
		return string(b)
	}
	// Gossip with delayed and dormant wakes.
	for _, gs := range small {
		g, err := spec.BuildGraph(gs)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"delayed", "dormant", "mixed"} {
			for range 4 {
				agents := team(func() spec.AlgorithmSpec { return spec.Gossip(bitString()) }, kind, 2, g.N(), 16)
				add(spec.ScenarioSpec{Graph: gs, Agents: agents})
			}
		}
	}
	// Randomized two-agent rendezvous.
	for _, gs := range small {
		g, err := spec.BuildGraph(gs)
		if err != nil {
			t.Fatal(err)
		}
		for range 20 {
			seed := r.Uint64()
			agents := team(func() spec.AlgorithmSpec { return spec.Randomized(seed, 0) }, "simultaneous", 2, g.N(), 16)
			add(spec.ScenarioSpec{Graph: gs, Agents: agents})
		}
	}
	// Baseline specs; delayed and dormant wakes are compile rejections.
	for _, f := range goldenFamilies {
		for _, n := range f.sizes {
			for _, kind := range kinds {
				gs := spec.GraphSpec{Family: f.family, N: n}
				g, err := spec.BuildGraph(gs)
				if err != nil {
					t.Fatal(err)
				}
				k := min(2+r.IntN(3), g.N())
				add(spec.ScenarioSpec{Graph: gs, Agents: team(spec.Baseline, kind, k, g.N(), 64)})
			}
		}
	}
	// The unknown-bound scenarios of the differential suite. Larger
	// labels are left out: the paper's bound is exponential in them.
	p := unknown.DefaultParams()
	sched := unknown.NewSchedule(p)
	for _, h := range []int{1, 3, 4} {
		cfg := sched.Config(h)
		entries = append(entries, goldenEntry{
			name: fmt.Sprintf("unknown-phi%d", h),
			part: "unknown",
			sc:   func() sim.Scenario { return sim.Scenario{Graph: cfg.G, Agents: unknown.ScenarioFor(cfg, p)} },
		})
	}
	return entries, known
}

// TestGoldenCorpusDigest pins every result of a fixed corpus: one SHA-256
// over each run's RunResult JSON (stepped rounds and moves included) or
// error text, with every tenth run repeated force-stepped, and over the
// canonical summary of the known-bound part at parallelism 1 and 4. An
// engine change that claims to leave results alone must leave the digest
// unchanged; one that changes results rewrites it with -update.
func TestGoldenCorpusDigest(t *testing.T) {
	entries, known := goldenCorpus(t)
	scs := make([]sim.Scenario, 0, len(entries)+len(entries)/10)
	var compileErrs []error
	var runIdx []int // index into scs per entry, -1 for a compile rejection
	for i, e := range entries {
		sc, err := compileEntry(e)
		compileErrs = append(compileErrs, err)
		if err != nil {
			runIdx = append(runIdx, -1)
			continue
		}
		runIdx = append(runIdx, len(scs))
		scs = append(scs, sc)
		if i%10 == 0 {
			stepped := sc
			stepped.OnRound = func(sim.RoundView) {}
			scs = append(scs, stepped)
		}
	}
	results := sim.RunBatch(scs, sim.WithParallelism(4))

	h := sha256.New()
	parts := map[string]hash.Hash{}
	write := func(part, line string) {
		if parts[part] == nil {
			parts[part] = sha256.New()
		}
		parts[part].Write([]byte(line))
		h.Write([]byte(line))
	}
	for i, e := range entries {
		part := e.part
		if compileErrs[i] != nil {
			write(part, fmt.Sprintf("%s compile %s\n", e.name, compileErrs[i]))
			continue
		}
		write(part, fmt.Sprintf("%s run %s\n", e.name, resultLine(t, results[runIdx[i]])))
		if i%10 == 0 {
			write(part+"-stepped", fmt.Sprintf("%s stepped %s\n", e.name, resultLine(t, results[runIdx[i]+1])))
		}
	}

	var summaries [2][]byte
	for j, par := range []int{1, 4} {
		s, err := agg.Summarize(sim.NewRunner(sim.WithParallelism(par)), known)
		if err != nil {
			t.Fatal(err)
		}
		if summaries[j], err = s.CanonicalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if string(summaries[0]) != string(summaries[1]) {
		t.Fatalf("known-bound summary differs between parallelism 1 and 4")
	}
	write("summary", fmt.Sprintf("summary %s\n", summaries[0]))

	got := hex.EncodeToString(h.Sum(nil))
	for _, part := range slices.Sorted(maps.Keys(parts)) {
		t.Logf("%-20s %x", part, parts[part].Sum(nil))
	}
	t.Logf("%d runs from %d corpus entries (%d known-bound)", len(scs), len(entries), len(known))
	if *updateGolden {
		if err := os.WriteFile(goldenDigestFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("golden corpus digest %s, pinned %s: some RunResult, error or summary changed "+
			"(run with -v at both commits and compare the per-part digests)", got, strings.TrimSpace(string(want)))
	}
}

func compileEntry(e goldenEntry) (sim.Scenario, error) {
	if e.sp == nil {
		return e.sc(), nil
	}
	return e.sp.Compile()
}

// resultLine is a run's JSON result, or its error text.
func resultLine(t *testing.T, br sim.BatchResult) string {
	if br.Err != nil {
		return "error " + br.Err.Error()
	}
	buf, err := json.Marshal(br.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
