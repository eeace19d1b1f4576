// Package nochatter is a complete implementation of the algorithms of
// "Want to Gather? No Need to Chatter!" (Bouchard, Dieudonné, Pelc;
// PODC 2020, arXiv:1908.11402): deterministic gathering, leader election
// and gossiping for teams of mobile agents on anonymous port-labeled
// networks, in a model where co-located agents CANNOT exchange any
// information — the only inter-agent signal is the number of agents at the
// current node (CurCard).
//
// The package ships a synchronous multi-agent simulator, the paper's two
// gathering algorithms (with and without a known upper bound on the network
// size), the movement-encoded communication primitive Communicate, the
// gossip protocol, and a traditional-model baseline for comparison.
//
// # Quick start
//
// Scenarios are data. A ScenarioSpec describes a run as a pure value —
// graph family, agents, algorithms by registered name — and compiles to a
// runnable scenario; the spec itself is JSON-round-trippable, so it can be
// saved, diffed and replayed (cmd/gathersim -dump-spec / -spec):
//
//	res, err := nochatter.ScenarioSpec{
//		Graph: nochatter.GraphSpec{Family: "ring", N: 8},
//		Agents: []nochatter.SpecAgent{
//			{Label: 23, Start: 0, Algorithm: nochatter.KnownAlgorithm()},
//			{Label: 8, Start: 4, Wake: nochatter.DormantUntilVisited, Algorithm: nochatter.KnownAlgorithm()},
//		},
//	}.Run()
//
// After a successful run, res.AllHaltedTogether() reports gathering with
// simultaneous declaration and every agent's Report.Leader carries the
// elected leader (Theorem 3.1).
//
// The closure form remains first-class for custom programs — build the
// graph and shared sequence yourself and pass Programs directly:
//
//	g := nochatter.Ring(8)
//	seq := nochatter.BuildSequence(g) // operational form of "knowing N"
//	res, err := nochatter.Run(nochatter.Scenario{
//		Graph: g,
//		Agents: []nochatter.AgentSpec{
//			{Label: 23, Start: 0, WakeRound: 0, Program: nochatter.GatherKnownUpperBound(seq)},
//			{Label: 8, Start: 4, WakeRound: nochatter.DormantUntilVisited, Program: nochatter.GatherKnownUpperBound(seq)},
//		},
//	})
//
// Registering a custom program under a name (RegisterAlgorithm) makes it
// addressable from specs, sweeps and the CLI like the built-ins.
//
// # The event-driven agent↔engine contract
//
// Agent programs talk to the engine through an instruction contract the
// engine can reason about: API.WaitRounds and API.WaitUntil submit a single
// bulk wait (not one handoff per round), API.WalkOffsets and API.WalkPorts
// submit whole multi-round walks the engine executes itself — a whole
// EXPLO, out and back, is the single instruction WalkOffsets(xs, len(xs)),
// retraced from the engine's own record of entry ports — and
// interruption conditions are declarative Condition values (CardAtLeast,
// CardChanged, LocalRoundReached, Any) evaluated engine-side via
// API.RunUntil. Whenever every awake agent is mid-wait and no condition can
// fire, the engine fast-forwards the global clock to the next event — the
// paper's astronomically long waiting phases cost almost nothing to
// simulate. RunResult.SteppedRounds reports the rounds actually processed.
//
// Migration note: API.RunInterruptible(pred, block), the closure form that
// pinned its agent to per-round stepping, is gone; RunUntil with a
// declarative Condition is the only interrupt form. Replace predicates of
// the form "CurCard() > c" with RunUntil(CardAtLeast(c+1), block), and
// stability waits with WaitUntilFor(CardChanged(), d). Agent programs run
// as coroutines the engine resumes once per instruction, never concurrently
// with each other.
//
// Walks return no entry ports any more: WalkOffsets(xs, back) retraces the
// last back of its moves itself, and both walks return only the smallest
// CurCard observed. The old three-line EXPLO — entries, _ :=
// a.WalkOffsets(xs); slices.Reverse(entries); a.WalkPorts(entries) —
// becomes a.WalkOffsets(xs, len(xs)).
//
// # Batch runs
//
// RunBatch (and the configurable Runner with WithMaxRounds, WithOnRound,
// WithParallelism) executes many independent scenarios on a worker pool —
// the building block of every scenario sweep in internal/experiments:
//
//	results := nochatter.RunBatch(scenarios, nochatter.WithParallelism(8))
//
// Parallelism never changes results: each run is deterministic and results
// arrive in input order. RunStream (and Runner.Stream) delivers results
// one at a time in input order without materializing the slice, and
// NewSweep builds cartesian families × sizes × teams × wake schedules ×
// algorithms products of ScenarioSpecs declaratively (see
// examples/batchsweep).
//
// # Streaming summaries
//
// For sweeps whose consumers want distributions rather than rows, Summarize
// folds every result into a Summary as results stream off the worker pool —
// counts, gathering rate, and histogram-derived p50/p90/p99 of gather
// rounds, engine-stepped rounds, total moves and wall time, grouped by the
// sweep's axes (graph family, size, team count, algorithm) — without ever
// materializing the result set:
//
//	summary, err := nochatter.Summarize(nochatter.NewRunner(nochatter.WithParallelism(8)), specs)
//	fmt.Println(summary.Total.Rounds.Quantile(0.99))
//
// Every reducer is integral and merges associatively and commutatively, so
// each worker folds locally and the merged summary is bit-identical
// regardless of parallelism (Summary.CanonicalJSON; wall time, the one
// machine-decided metric, is excluded from that guarantee). The same
// artifact is served by gatherd: GET /v1/jobs/{id}/summary, cached under a
// key derived from the sweep's specs (SweepSummaryKey), and sweeps
// submitted with ?summary=only never retain raw rows at all. See DESIGN.md
// §9 and the Summarize example.
//
// # Simulation as a service
//
// cmd/gatherd serves all of the above over HTTP. Because every run is a
// deterministic function of its spec, the daemon fronts the engine with a
// content-addressed result cache (canonical-JSON SHA-256 keys, bounded LRU,
// singleflight deduplication) and an async job queue for sweeps: POST a
// ScenarioSpec to /v1/run for a cache-aware synchronous result, POST a
// SweepDef to /v1/sweeps and stream NDJSON results in input order from
// /v1/jobs/{id}/results. NewService embeds the same machinery in-process
// (see examples/serveclient and DESIGN.md §8).
//
// # Scaling out
//
// A fleet of gatherd daemons scales sweeps horizontally: a
// ClusterCoordinator partitions a sweep's expanded specs into many small
// cost-balanced chunks — a pure function of the spec list and the
// scheduling parameters (SchedPlanner, SchedDefaultCost) — which each
// ClusterWorker pulls and steals from a shared queue as summary-only
// jobs, with failed chunks rerouted off workers that fail or go
// unhealthy. Per-chunk summaries merge in fixed chunk order; because
// every reducer merges associatively and commutatively, the merged total
// is bit-identical (CanonicalJSON) to a single-process run of the whole
// sweep, whatever the fleet size, whichever workers died along the way
// and whatever order chunks finished in. `gatherd -workers
// http://a,http://b` serves the same fan-out behind POST
// /v1/sweeps?summary=only, and `gathersim -remote` drives it from the CLI
// (see examples/cluster and DESIGN.md §10, §12).
//
// See README.md for the repository front door, DESIGN.md for the system
// inventory, the documented substitutions (exploration sequences,
// rendezvous procedure, EST) and the experiment index, and EXPERIMENTS.md
// for the reproduced claims.
package nochatter

import (
	"nochatter/internal/agg"
	"nochatter/internal/baseline"
	"nochatter/internal/cluster"
	"nochatter/internal/config"
	"nochatter/internal/gather"
	"nochatter/internal/gossip"
	"nochatter/internal/graph"
	"nochatter/internal/randomized"
	"nochatter/internal/sched"
	"nochatter/internal/service"
	"nochatter/internal/sim"
	"nochatter/internal/spec"
	"nochatter/internal/ues"
	"nochatter/internal/unknown"
)

// Core simulation types, re-exported from the engine.
type (
	// Graph is an immutable anonymous port-labeled connected graph.
	Graph = graph.Graph
	// GraphBuilder assembles custom graphs edge by edge.
	GraphBuilder = graph.Builder
	// Scenario describes one simulation: a graph and its agents.
	Scenario = sim.Scenario
	// AgentSpec is one agent: label, start node, wake round, program.
	AgentSpec = sim.AgentSpec
	// Program is a complete agent algorithm in blocking style.
	Program = sim.Program
	// API is the world interface an agent program perceives.
	API = sim.API
	// Report carries algorithm results (leader, size, gossip).
	Report = sim.Report
	// RunResult is the outcome of a completed simulation.
	RunResult = sim.RunResult
	// AgentResult is one agent's final state.
	AgentResult = sim.AgentResult
	// RoundView is the per-round snapshot passed to Scenario.OnRound.
	RoundView = sim.RoundView
	// Condition is a declarative wake/interrupt predicate the engine
	// evaluates itself (see CardAtLeast, CardChanged, LocalRoundReached,
	// Any, API.WaitUntil and API.RunUntil).
	Condition = sim.Condition
	// Runner executes scenarios with shared defaults and a worker pool.
	Runner = sim.Runner
	// RunnerOption configures a Runner (WithMaxRounds, WithOnRound,
	// WithParallelism).
	RunnerOption = sim.Option
	// BatchResult is one scenario's outcome within a RunBatch.
	BatchResult = sim.BatchResult
	// Sequence is a universal exploration sequence — the operational form
	// of a known upper bound on the network size.
	Sequence = ues.Sequence
	// Timing bundles the public duration constants derived from a Sequence.
	Timing = gather.Timing
	// UnknownParams is the scaled duration profile for gathering without
	// any a-priori knowledge (see internal/unknown and DESIGN.md).
	UnknownParams = unknown.Params
	// UnknownSchedule computes per-hypothesis durations and configurations
	// of the enumeration Ω.
	UnknownSchedule = unknown.Schedule
	// Configuration is one initial configuration φ of the enumeration Ω.
	Configuration = config.Configuration
	// BaselineSpec is one agent of the traditional-model baseline.
	BaselineSpec = baseline.Spec
	// BaselineResult is the baseline's gathering outcome.
	BaselineResult = baseline.Result
)

// Scenarios as data: pure-value, JSON-round-trippable scenario descriptions
// that compile to runnable scenarios through the graph-family and algorithm
// registries, re-exported from internal/spec.
type (
	// ScenarioSpec is a complete scenario as data; Compile or Run it.
	ScenarioSpec = spec.ScenarioSpec
	// GraphSpec selects a graph by registered family name plus parameters.
	GraphSpec = spec.GraphSpec
	// SpecAgent is the pure-data description of one agent (label, start,
	// wake, algorithm by name) — the serializable counterpart of AgentSpec.
	SpecAgent = spec.AgentSpec
	// AlgorithmSpec references an agent algorithm by registered name.
	AlgorithmSpec = spec.AlgorithmSpec
	// SpecArtifacts carries the per-compilation objects shared by a team
	// (graph, memoized exploration sequence); program builders receive it.
	SpecArtifacts = spec.Artifacts
	// ProgramBuilder compiles an AlgorithmSpec into a Program; register
	// one with RegisterAlgorithm to make a custom algorithm spec-addressable.
	ProgramBuilder = spec.ProgramBuilder
	// GraphBuilderFunc builds a graph family from its parameters; register
	// one with RegisterGraphFamily.
	GraphBuilderFunc = spec.GraphBuilderFunc
	// Sweep composes cartesian products of graphs, teams, wake schedules
	// and algorithms into streams of ScenarioSpecs.
	Sweep = spec.Sweep
	// SweepTeam is the team axis of a Sweep: labels plus optional starts
	// and wakes.
	SweepTeam = spec.Team
	// SweepDef is the JSON-serializable form of a Sweep — the document
	// POST /v1/sweeps accepts (Sweep.Def and SweepDef.Sweep convert).
	SweepDef = spec.SweepDef
)

// Streaming sweep aggregation, re-exported from internal/agg: deterministic,
// merge-able reducers over run results that summarize sweeps as they stream
// instead of materializing them. See DESIGN.md §9.
type (
	// Summary is the streaming reduction of a sweep: a total cell plus one
	// cell per group key; folds with Observe, combines with Merge.
	Summary = agg.Summary
	// SummaryDist is one metric's streaming distribution: count, sum,
	// min/max and a fixed log2-bucket histogram yielding p50/p90/p99.
	SummaryDist = agg.Dist
	// SummaryGroupKey identifies one group of a summary: the spec axes a
	// sweep varies (graph family, size, team count, algorithm).
	SummaryGroupKey = agg.Key
	// SummaryCell is one group's reduction: outcome counters plus a
	// SummaryDist per metric.
	SummaryCell = agg.Cell
	// SummaryGroup is one (key, cell) pair of a summary's group-by.
	SummaryGroup = agg.Group
	// SummaryResponse is the wire form of GET /v1/jobs/{id}/summary.
	SummaryResponse = service.SummaryResponse
)

// Streaming sweep aggregation constructors, re-exported from internal/agg
// and internal/service.
var (
	// NewSummary returns an empty summary to fold results into.
	NewSummary = agg.NewSummary
	// Summarize compiles and runs specs on a Runner's worker pool, folding
	// every result into a per-worker summary merged at the end — the raw
	// result set is never materialized, and the outcome is bit-identical
	// for any parallelism.
	Summarize = agg.Summarize
	// SummarizeScenarios folds pre-compiled scenarios whose index-aligned
	// specs provide the group keys.
	SummarizeScenarios = agg.SummarizeScenarios
	// SummaryKeyOf derives a spec's group key (family, n, k, algorithm).
	SummaryKeyOf = agg.KeyOf
	// SweepSummaryKey returns the content address a sweep's summary is
	// cached under: the hash of a domain tag plus every spec's canonical
	// encoding, in order.
	SweepSummaryKey = service.SweepSummaryKey
)

// Simulation as a service: the content-addressed cache, job queue and HTTP
// API behind cmd/gatherd, re-exported from internal/service so clients of
// the daemon share its wire types and embedders can mount the handler in
// their own servers. See DESIGN.md §8.
type (
	// Service is the simulation service: cache-aware single runs, async
	// sweep jobs, metrics; Service.Handler is the gatherd HTTP API.
	Service = service.Service
	// ServiceConfig sizes a Service (cache entries, job workers, per-job
	// parallelism, backlog, sweep expansion limit).
	ServiceConfig = service.Config
	// RunResponse is the wire form of POST /v1/run.
	RunResponse = service.RunResponse
	// SweepAccepted is the wire form of POST /v1/sweeps.
	SweepAccepted = service.SweepAccepted
	// JobStatus is the wire form of GET /v1/jobs/{id}.
	JobStatus = service.JobStatus
	// JobResult is one NDJSON line of GET /v1/jobs/{id}/results.
	JobResult = service.JobResult
	// JobState is a job's lifecycle position (queued/running/done/failed).
	JobState = service.JobState
	// ServiceMetrics is the wire form of GET /metrics.
	ServiceMetrics = service.Metrics
)

// Cluster-scheduled sweeps, re-exported from internal/cluster: a
// coordinator that partitions a sweep's expanded specs into cost-balanced
// chunks which a fleet of gatherd workers pulls and steals as summary-only
// jobs, reroutes failed chunks to survivors, and merges the per-chunk
// summaries — in fixed chunk order — into a total bit-identical
// (CanonicalJSON) to a single-process run. cmd/gatherd -workers serves
// this behind POST /v1/sweeps?summary=only. See DESIGN.md §10, §12 and
// examples/cluster.
type (
	// ClusterCoordinator schedules sweeps across gatherd workers and merges
	// their summaries deterministically.
	ClusterCoordinator = cluster.Coordinator
	// ClusterWorker is the HTTP client of one gatherd backend: summary-only
	// submission, summary long-polling, health probes, bounded retries.
	ClusterWorker = cluster.Worker
	// ClusterWorkerOption configures a ClusterWorker (retry budget, HTTP
	// client).
	ClusterWorkerOption = cluster.WorkerOption
)

// Cluster constructors and the sharding function, re-exported from
// internal/cluster.
var (
	// NewClusterCoordinator returns a coordinator over the given workers.
	NewClusterCoordinator = cluster.NewCoordinator
	// NewClusterWorker returns a client for the gatherd at a base URL.
	NewClusterWorker = cluster.NewWorker
	// ClusterShardBounds is the deterministic static sharding function: the
	// half-open spec range [lo, hi) of shard i when n specs are partitioned
	// contiguously over a worker count — the degenerate one-chunk-per-worker
	// plan (SchedStaticBounds is the same function).
	ClusterShardBounds = cluster.ShardBounds
	// WithClusterRetries sets a worker's retry budget and backoff base.
	WithClusterRetries = cluster.WithRetries
	// WithClusterHTTPClient sets a worker's HTTP client.
	WithClusterHTTPClient = cluster.WithHTTPClient
)

// The sweep scheduler, re-exported from internal/sched: the deterministic
// cost-weighted chunk planner behind ClusterCoordinator, its calibrated
// cost model, and the stats the coordinator reports. The partition is a
// pure function of the spec list and the scheduling parameters — never of
// timing or completion order — which is what keeps distributed totals
// bit-identical to local ones. See DESIGN.md §12.
type (
	// SchedChunk is one schedulable unit: a contiguous spec range, its
	// predicted cost, and its fixed merge position.
	SchedChunk = sched.Chunk
	// SchedPlanner partitions expanded sweeps into cost-balanced chunks;
	// the zero value is the coordinator's default configuration.
	SchedPlanner = sched.Planner
	// SchedCostModel predicts one spec's relative execution cost.
	SchedCostModel = sched.CostModel
	// SchedWorkerStats counts one worker's share of dispatched, stolen,
	// retried and failed chunks.
	SchedWorkerStats = sched.WorkerStats
	// SchedFleetStats aggregates scheduler counters across a coordinator's
	// sweeps, as served under "scheduler" in a coordinator's GET /metrics.
	SchedFleetStats = sched.FleetStats
)

// Scheduler functions, re-exported from internal/sched.
var (
	// SchedDefaultCost is the calibrated per-spec cost model (engine-stepped
	// rounds as a function of graph family, size and team size).
	SchedDefaultCost = sched.DefaultCost
	// SchedStaticBounds is the degenerate one-chunk-per-worker partition.
	SchedStaticBounds = sched.StaticBounds
)

// Service construction and spec hashing, re-exported from internal/service.
var (
	// NewService returns a started simulation service; Close it when done.
	NewService = service.New
	// CanonicalSpec returns a spec's canonical JSON encoding — the cache
	// key material (name stripped, sorted keys, normalized numbers).
	CanonicalSpec = service.CanonicalSpec
	// SpecKey returns a spec's content address: hex SHA-256 of its
	// canonical encoding. Equal keys mean equal runs.
	SpecKey = service.SpecKey
	// ParseSweepDef decodes a SweepDef from JSON (unknown fields rejected).
	ParseSweepDef = spec.ParseSweepDef
)

// Job lifecycle states, re-exported from internal/service.
const (
	JobQueued  = service.JobQueued
	JobRunning = service.JobRunning
	JobDone    = service.JobDone
	JobFailed  = service.JobFailed
)

// Spec construction, parsing and registries, re-exported from internal/spec.
var (
	// ParseSpec decodes a ScenarioSpec from JSON (unknown fields rejected).
	ParseSpec = spec.Parse
	// LoadSpec reads and parses a ScenarioSpec from a JSON file.
	LoadSpec = spec.Load
	// BuildGraph compiles a GraphSpec through the family registry.
	BuildGraph = spec.BuildGraph
	// CompileSpecs compiles a slice of specs (a sweep's output) into
	// scenarios ready for RunBatch or RunStream.
	CompileSpecs = spec.CompileAll
	// RegisterGraphFamily adds a graph family to the registry.
	RegisterGraphFamily = spec.RegisterGraphFamily
	// GraphFamilies lists the registered family names.
	GraphFamilies = spec.GraphFamilies
	// RegisterAlgorithm adds an algorithm to the registry.
	RegisterAlgorithm = spec.RegisterAlgorithm
	// Algorithms lists the registered algorithm names.
	Algorithms = spec.Algorithms
	// NewSweep starts a declarative scenario sweep.
	NewSweep = spec.NewSweep
	// TeamOfSize returns the canonical k-agent team (labels 1..k at nodes
	// 0..k-1).
	TeamOfSize = spec.TeamOfSize
	// KnownAlgorithm is the spec of GatherKnownUpperBound (Algorithm 3).
	KnownAlgorithm = spec.Known
	// GossipAlgorithm is the spec of GossipKnownUpperBound (Section 5).
	GossipAlgorithm = spec.Gossip
	// UnknownAlgorithm is the spec of GatherUnknownUpperBound (Algorithm 5).
	UnknownAlgorithm = spec.Unknown
	// RandomizedAlgorithm is the spec of the randomized rendezvous (Sec. 6).
	RandomizedAlgorithm = spec.Randomized
	// BaselineAlgorithm is the spec of the traditional-model baseline.
	BaselineAlgorithm = spec.Baseline
)

// DormantUntilVisited marks an agent the adversary never wakes; it starts
// when another agent first visits its start node.
const DormantUntilVisited = sim.DormantUntilVisited

// Run executes a scenario to completion, deterministically.
func Run(sc Scenario) (*RunResult, error) { return sim.Run(sc) }

// Declarative wait/interrupt conditions and the batch API, re-exported from
// the engine.
var (
	// CardAtLeast fires when CurCard reaches k (the paper's "as soon as
	// CurCard > c" with k = c+1).
	CardAtLeast = sim.CardAtLeast
	// CardChanged fires when CurCard moves off its value at arming time.
	CardChanged = sim.CardChanged
	// LocalRoundReached fires when the agent's local round counter hits r.
	LocalRoundReached = sim.LocalRoundReached
	// Any fires when any sub-condition fires.
	Any = sim.Any
	// NewRunner builds a scenario runner with shared defaults.
	NewRunner = sim.NewRunner
	// RunBatch executes independent scenarios on a worker pool, results in
	// input order.
	RunBatch = sim.RunBatch
	// RunStream executes independent scenarios on a worker pool, streaming
	// results in input order without materializing the result slice.
	RunStream = sim.RunStream
	// ValidateScenario checks a scenario up front (labels, starts, wake
	// rounds, programs) and returns a descriptive error; Run and spec
	// compilation apply the same checks.
	ValidateScenario = sim.Validate
	// WithMaxRounds sets a Runner's default round budget.
	WithMaxRounds = sim.WithMaxRounds
	// WithOnRound sets a Runner's default per-round hook (forces per-round
	// stepping).
	WithOnRound = sim.WithOnRound
	// WithParallelism sets how many scenarios a Runner executes concurrently.
	WithParallelism = sim.WithParallelism
)

// NewGraphBuilder starts building a custom port-labeled graph with n nodes.
func NewGraphBuilder(name string, n int) *GraphBuilder { return graph.NewBuilder(name, n) }

// Graph generators.
var (
	// Ring returns the n-cycle (n >= 3).
	Ring = graph.Ring
	// Path returns the n-node path (n >= 2).
	Path = graph.Path
	// Complete returns K_n (n >= 2).
	Complete = graph.Complete
	// Star returns a center with n-1 leaves (n >= 2).
	Star = graph.Star
	// Grid returns the r x c grid.
	Grid = graph.Grid
	// Torus returns the r x c torus (r, c >= 3).
	Torus = graph.Torus
	// Hypercube returns the d-dimensional hypercube.
	Hypercube = graph.Hypercube
	// RandomTree returns a seeded random tree on n nodes.
	RandomTree = graph.RandomTree
	// GNP returns a seeded connected Erdős–Rényi graph.
	GNP = graph.GNP
	// Barbell returns two k-cliques joined by a path.
	Barbell = graph.Barbell
	// Lollipop returns a k-clique with a tail path.
	Lollipop = graph.Lollipop
	// TwoNodes returns the smallest legal network: one edge.
	TwoNodes = graph.TwoNodes
)

// BuildSequence constructs the run's universal exploration sequence for g:
// the shared public knowledge that operationalizes "all agents know an upper
// bound N on the size" (DESIGN.md, substitution 1).
func BuildSequence(g *Graph) *Sequence { return ues.Build(g) }

// GatherKnownUpperBound returns the agent program for the paper's
// Algorithm 3: gathering with simultaneous declaration plus leader election,
// given a known upper bound on the network size (Theorem 3.1). All agents of
// a run must share the same Sequence.
func GatherKnownUpperBound(seq *Sequence) Program { return gather.NewProgram(seq) }

// GossipKnownUpperBound returns the agent program for the paper's
// Section 5: gather, then make every agent's binary message known to all
// agents with multiplicities (Theorem 5.1). Each agent passes its own
// message.
func GossipKnownUpperBound(seq *Sequence, message string) Program {
	return gossip.NewProgram(seq, message)
}

// GatherUnknownUpperBound returns the agent program for the paper's
// Algorithm 5: gathering, leader election and size discovery with NO
// a-priori knowledge about the network (Theorem 4.1), under the scaled
// duration profile p (use DefaultUnknownParams for graphs of at most three
// nodes; the paper's unscaled constants are astronomically large by design —
// see unknown.PaperDims).
func GatherUnknownUpperBound(p UnknownParams) Program { return unknown.NewProgram(p) }

// DefaultUnknownParams returns the scaled profile valid for true graphs
// with at most 3 nodes and diameter at most 2.
func DefaultUnknownParams() UnknownParams { return unknown.DefaultParams() }

// NewUnknownSchedule returns the deterministic hypothesis schedule all
// agents of an unknown-bound run share.
func NewUnknownSchedule(p UnknownParams) *UnknownSchedule { return unknown.NewSchedule(p) }

// UnknownScenarioFor builds the agent specs matching a configuration of Ω:
// one GatherUnknownUpperBound agent per labeled node.
func UnknownScenarioFor(cfg *Configuration, p UnknownParams) []AgentSpec {
	return unknown.ScenarioFor(cfg, p)
}

// PaperUnknownDims reports the paper's exact (astronomical) duration
// constants for hypothesis h with parameters n_h and m_h, as documented in
// DESIGN.md substitution 4.
func PaperUnknownDims(h, nh, mh int) unknown.PaperDimsResult {
	return unknown.PaperDims(h, nh, mh)
}

// Communicate exposes the paper's Algorithm 4 — the movement-encoded
// broadcast primitive — for building custom chatter-free protocols on top.
// All co-located agents must call it in the same round with the same i; s
// must be a codeword produced by Encode. See internal/gather for the
// delivery guarantees (Lemma 3.1).
func Communicate(a *API, tm Timing, i int, s string, participate bool) (l string, k int) {
	return gather.Communicate(a, tm, i, s, participate)
}

// NewTiming derives the public duration constants from a sequence.
func NewTiming(seq *Sequence) Timing { return Timing{Seq: seq} }

// BaselineGather runs the traditional-model (talking) baseline on the same
// scenario shape, for overhead comparisons (experiment E6).
func BaselineGather(g *Graph, seq *Sequence, specs []BaselineSpec) (BaselineResult, error) {
	return baseline.Gather(g, seq, specs)
}

// RandomizedRendezvous returns the two-agent randomized gathering program
// exploring the paper's Section-6 open problem: a lazy random walk with
// CurCard detection, no knowledge required, polynomial expected meeting
// time (experiment E11). See internal/randomized for scope and limits.
func RandomizedRendezvous(scenarioSeed uint64, maxRounds int) Program {
	return randomized.RendezvousProgram(scenarioSeed, maxRounds)
}
