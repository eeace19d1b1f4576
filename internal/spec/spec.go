// Package spec makes scenarios data. A ScenarioSpec is a pure-value,
// JSON-round-trippable description of one simulation — graph family and
// parameters, agents with algorithms referenced by registered name — that
// compiles to a runnable sim.Scenario. Because a spec carries no live
// *graph.Graph and no Program closures, it can be saved, replayed, diffed,
// queued, sharded and served: the same scenario a CLI invocation builds from
// flags can be dumped to a file (cmd/gathersim -dump-spec), checked into a
// repo, and re-run bit-identically anywhere (-spec file.json).
//
// Compilation goes through two registries: the graph-family registry
// (RegisterGraphFamily; ring, path, complete, star, grid, torus, hypercube,
// tree, gnp, barbell, lollipop, two are built in) and the algorithm registry
// (RegisterAlgorithm; known, gossip, unknown, randomized, baseline are built
// in). Specs are user input, so the built-in families return an error, never
// a panic, on an out-of-range parameter, and refuse before allocating any
// graph above 2,048 nodes or 2^18 edges. Per-run artifacts that the paper's algorithms share across the whole
// team — the universal exploration sequence operationalizing "all agents
// know N" — are constructed once per compilation and handed to every
// program builder through Artifacts.
//
// On top of single specs, SweepDef is a whole sweep as data: cartesian
// products of graphs, teams, wake schedules and algorithms, plus an
// optional explicit spec list, which SweepDef.Specs expands in a fixed
// order. It is the one sweep type — the Go literal experiments and
// examples write, and the JSON document POST /v1/sweeps, gathersim -sweep
// and fleet chunks carry.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"nochatter/internal/graph"
	"nochatter/internal/sim"
	"nochatter/internal/ues"
)

// GraphSpec selects a graph by registered family name plus parameters. The
// zero values of unused parameters are omitted from JSON.
type GraphSpec struct {
	// Family is the registered family name (see GraphFamilies).
	Family string `json:"family"`
	// N is the size parameter: node count for most families, the dimension
	// for hypercube, the clique size for barbell and lollipop.
	N int `json:"n,omitempty"`
	// Rows shapes grid and torus: rows × (N/Rows); 0 picks the most
	// balanced factorization of N.
	Rows int `json:"rows,omitempty"`
	// P is the edge probability for gnp (0 means the default 0.3).
	P float64 `json:"p,omitempty"`
	// Seed drives the random families (tree, gnp) deterministically.
	Seed int64 `json:"seed,omitempty"`
	// Tail is the bridge length for barbell and the tail length for
	// lollipop (0 means 1).
	Tail int `json:"tail,omitempty"`
}

// AlgorithmSpec references an agent algorithm by registered name, with
// JSON-value parameters interpreted by the algorithm's builder (see the
// Param accessors). The Known/Gossip/Unknown/Randomized/Baseline
// constructors build specs for the built-in algorithms.
type AlgorithmSpec struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// ParamInt returns the integer parameter key, or def when absent. It
// parses the value's canonical encoding — the bytes its content address
// holds — so two values that share a key read alike: the JSON spellings
// "5", "5.0" and "5e0" and the Go values int64(5), uint8(5) and 5.0 are
// all 5. A non-integral or out-of-range value is an error, never a silent
// truncation.
func (a AlgorithmSpec) ParamInt(key string, def int) (int, error) {
	v := a.Params[key]
	if v == nil {
		return def, nil
	}
	n, err := strconv.ParseInt(canonicalParam(v), 10, 64)
	if err != nil || int64(int(n)) != n {
		return 0, fmt.Errorf("param %q: %v is not an int-sized integer", key, v)
	}
	return int(n), nil
}

// ParamUint64 returns the uint64 parameter key, or def when absent; like
// ParamInt it parses the value's canonical encoding, which keeps full
// 64-bit precision through JSON.
func (a AlgorithmSpec) ParamUint64(key string, def uint64) (uint64, error) {
	v := a.Params[key]
	if v == nil {
		return def, nil
	}
	n, err := strconv.ParseUint(canonicalParam(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("param %q: %v is not a non-negative integer", key, v)
	}
	return n, nil
}

// canonicalParam is the canonical encoding of a param value, or "" for a
// value that has none (and so fails to parse).
func canonicalParam(v any) string {
	var buf [32]byte
	enc, err := appendValue(buf[:0], v)
	if err != nil {
		return ""
	}
	return string(enc)
}

// ParamString returns the string parameter key, or def when absent; a
// present non-string value is an error, never a silent default.
func (a AlgorithmSpec) ParamString(key, def string) (string, error) {
	switch v := a.Params[key].(type) {
	case nil:
		return def, nil
	case string:
		return v, nil
	default:
		return "", fmt.Errorf("param %q: %T is not a string", key, v)
	}
}

// AgentSpec is the pure-data description of one agent: where it starts,
// when the adversary wakes it, and which registered algorithm it runs. It
// compiles to a sim.AgentSpec whose Program is built by the algorithm
// registry.
type AgentSpec struct {
	Label int `json:"label"`
	Start int `json:"start"`
	// Wake is the adversarial wake round; a visit by a woken agent wakes
	// the agent earlier. sim.DormantUntilVisited (-1) marks an agent woken
	// only by a visiting agent.
	Wake      int           `json:"wake,omitempty"`
	Algorithm AlgorithmSpec `json:"algorithm"`
}

// ScenarioSpec is a complete scenario as data. It is the serializable
// counterpart of sim.Scenario: Compile builds the graph through the family
// registry, the programs through the algorithm registry, and validates the
// result with the same checks sim.Run applies.
type ScenarioSpec struct {
	// Name is a free-form identifier (sweeps template it); it does not
	// affect the run.
	Name      string      `json:"name,omitempty"`
	Graph     GraphSpec   `json:"graph"`
	Agents    []AgentSpec `json:"agents"`
	MaxRounds int         `json:"max_rounds,omitempty"`
}

// MarshalIndentJSON renders the spec as indented JSON, the artifact format
// of cmd/gathersim -dump-spec.
func (s ScenarioSpec) MarshalIndentJSON() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Parse decodes a ScenarioSpec from JSON. Hand-edited specs fail loudly:
// unknown fields and trailing content after the spec are rejected, and
// numbers decode as json.Number so 64-bit parameters (randomized seeds)
// survive with full precision.
func Parse(data []byte) (ScenarioSpec, error) {
	var s ScenarioSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(&s); err != nil {
		return ScenarioSpec{}, fmt.Errorf("spec: parse: %w", err)
	}
	if dec.More() {
		return ScenarioSpec{}, fmt.Errorf("spec: parse: trailing content after the scenario spec")
	}
	return s, nil
}

// Load reads and parses a ScenarioSpec from a JSON file.
func Load(path string) (ScenarioSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("spec: %w", err)
	}
	return Parse(data)
}

// Artifacts carries the per-compilation objects shared by the whole team:
// the compiled graph and lazily built, memoized derivations of it. Program
// builders receive the compilation's Artifacts so that all agents of a run
// share one ues.Sequence (the paper's public knowledge of N) instead of
// each rebuilding it.
type Artifacts struct {
	scenario *ScenarioSpec
	g        *graph.Graph
	seq      *ues.Sequence

	// Memoized centralized baseline run (algorithms.go); compilation is
	// single-goroutine, so a plain flag suffices.
	baselineDone bool
	baselineRes  baselineOutcome
	baselineErr  error
}

// Spec returns the full scenario spec under compilation, for builders whose
// program depends on the whole team (the baseline's centralized precompute).
func (ar *Artifacts) Spec() *ScenarioSpec { return ar.scenario }

// Graph returns the compiled graph.
func (ar *Artifacts) Graph() *graph.Graph { return ar.g }

// Sequence returns the run's universal exploration sequence, built once on
// first use and shared by every agent of the compilation. Construction is
// memoized across compilations by GraphSpec (seqcache.go), so repeated
// compilations of the same graph shape — a service's cache-miss traffic —
// share one sequence instead of rebuilding it.
func (ar *Artifacts) Sequence() *ues.Sequence {
	if ar.seq == nil {
		ar.seq = sequenceFor(ar.scenario.Graph, ar.g)
	}
	return ar.seq
}

// Compile builds the runnable sim.Scenario a spec describes. The result is
// deterministic: compiling equal specs yields scenarios whose runs produce
// bit-identical RunResults. Compilation validates the scenario with
// sim.Validate, so a bad spec fails here with a descriptive error rather
// than mid-run.
func (s ScenarioSpec) Compile() (sim.Scenario, error) {
	sc, _, err := s.CompileArtifacts()
	return sc, err
}

// CompileArtifacts is Compile, additionally returning the compilation's
// shared Artifacts — callers that report on the run (experiment tables
// printing T(EXPLO)) need the sequence the team was compiled with.
func (s ScenarioSpec) CompileArtifacts() (sim.Scenario, *Artifacts, error) {
	g, err := BuildGraph(s.Graph)
	if err != nil {
		return sim.Scenario{}, nil, err
	}
	ar := &Artifacts{scenario: &s, g: g}
	team := make([]sim.AgentSpec, len(s.Agents))
	for i, ag := range s.Agents {
		b, err := algorithmBuilder(ag.Algorithm.Name)
		if err != nil {
			return sim.Scenario{}, nil, fmt.Errorf("spec: agent label %d: %w", ag.Label, err)
		}
		prog, err := b(ar, ag)
		if err != nil {
			return sim.Scenario{}, nil, fmt.Errorf("spec: agent label %d (%s): %w", ag.Label, ag.Algorithm.Name, err)
		}
		team[i] = sim.AgentSpec{Label: ag.Label, Start: ag.Start, WakeRound: ag.Wake, Program: prog}
	}
	sc := sim.Scenario{Graph: g, Agents: team, MaxRounds: s.MaxRounds}
	if err := sim.Validate(sc); err != nil {
		return sim.Scenario{}, nil, fmt.Errorf("spec: %w", err)
	}
	return sc, ar, nil
}

// Run compiles and executes the spec in one step.
func (s ScenarioSpec) Run() (*sim.RunResult, error) {
	sc, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return sim.Run(sc)
}

// CompileAll compiles every spec (a sweep's output, typically), failing on
// the first error; the result feeds sim.RunBatch or sim.FoldBatch directly.
func CompileAll(specs []ScenarioSpec) ([]sim.Scenario, error) {
	scs, _, err := CompileAllArtifacts(specs)
	return scs, err
}

// CompileAllArtifacts is CompileAll, additionally returning each
// compilation's shared Artifacts (for callers that report on the runs).
func CompileAllArtifacts(specs []ScenarioSpec) ([]sim.Scenario, []*Artifacts, error) {
	scs := make([]sim.Scenario, len(specs))
	ars := make([]*Artifacts, len(specs))
	for i, sp := range specs {
		sc, ar, err := sp.CompileArtifacts()
		if err != nil {
			name := sp.Name
			if name == "" {
				name = fmt.Sprintf("spec %d", i)
			}
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		scs[i], ars[i] = sc, ar
	}
	return scs, ars, nil
}
