package sim

import (
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync/atomic"

	"nochatter/internal/graph"
)

// DormantUntilVisited marks an agent that the adversary never wakes: it
// starts only when a woken agent first visits its start node.
const DormantUntilVisited = -1

// AgentSpec describes one agent of a scenario.
//
// An agent that is not yet awake wakes at its adversarial wake round or in
// the first round a woken agent stands on its start node, whichever comes
// first: the adversary chooses wake rounds, but a visit always wakes.
type AgentSpec struct {
	Label     int // positive, unique within the scenario
	Start     int // start node, unique within the scenario
	WakeRound int // adversarial wake round, or DormantUntilVisited
	Program   Program
}

// RoundView is the engine-side snapshot passed to the optional OnRound hook.
type RoundView struct {
	Round     int
	Positions []int // node per agent index; shared backing array, do not keep
	Awake     []bool
	Halted    []bool
}

// Scenario is a complete simulation setup.
type Scenario struct {
	Graph  *graph.Graph
	Agents []AgentSpec

	// MaxRounds aborts the run when exceeded (0 means DefaultMaxRounds).
	MaxRounds int

	// OnRound, if non-nil, observes every round before moves are applied.
	// Setting it forces the engine into per-round stepping: every simulated
	// round is processed so the hook misses nothing, at the cost of the
	// event-driven fast-forward (see Run).
	OnRound func(RoundView)
}

// DefaultMaxRounds bounds runaway simulations.
const DefaultMaxRounds = 50_000_000

// AgentResult is the per-agent outcome of a run.
// The JSON tags define the wire form the service layer returns; marshaling
// is deterministic (fixed field order, sorted gossip map keys), so equal
// results serialize to identical bytes.
type AgentResult struct {
	Label      int    `json:"label"`
	Halted     bool   `json:"halted"`
	HaltRound  int    `json:"halt_round"` // global round in which the program returned (-1 if not)
	FinalNode  int    `json:"final_node"`
	WokenRound int    `json:"woken_round"` // global round in which the agent woke (-1 if never)
	Report     Report `json:"report"`
}

// RunResult is the outcome of a completed run.
type RunResult struct {
	Rounds int           `json:"rounds"` // rounds elapsed until the last agent halted
	Agents []AgentResult `json:"agents"`

	// SteppedRounds counts the rounds the engine actually processed; the
	// difference to Rounds is what the event-driven clock fast-forwarded
	// over. It is diagnostic only and carries no model semantics.
	SteppedRounds int `json:"stepped_rounds"`

	// Moves counts edge traversals over the whole run, summed across agents
	// — the paper's movement-cost measure, and one of the metrics
	// internal/agg summarizes across sweeps.
	Moves int `json:"moves"`
}

// AllHaltedTogether reports whether every agent halted, all in the same round
// and at the same node — the paper's definition of successful gathering with
// simultaneous declaration.
func (r *RunResult) AllHaltedTogether() bool {
	if len(r.Agents) == 0 {
		return false
	}
	first := r.Agents[0]
	for _, a := range r.Agents {
		if !a.Halted || a.HaltRound != first.HaltRound || a.FinalNode != first.FinalNode {
			return false
		}
	}
	return true
}

// Leaders returns the set of distinct leader labels reported by agents.
func (r *RunResult) Leaders() []int {
	set := map[int]bool{}
	for _, a := range r.Agents {
		set[a.Report.Leader] = true
	}
	out := make([]int, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// Validation errors.
var (
	ErrNoAgents       = errors.New("sim: scenario needs at least one agent")
	ErrDuplicateLabel = errors.New("sim: duplicate agent label")
	ErrDuplicateStart = errors.New("sim: duplicate start node")
	ErrBadLabel       = errors.New("sim: labels must be positive")
	ErrBadStart       = errors.New("sim: start node out of range")
	ErrNoWake         = errors.New("sim: some agent must wake at round 0")
	ErrMaxRounds      = errors.New("sim: exceeded max rounds without all agents halting")
)

// Cumulative counters across all runs of the process, for throughput
// reporting (cmd/benchharness -json).
var (
	totalSimulated atomic.Int64
	totalStepped   atomic.Int64
)

// SimulatedRounds returns the process-wide totals of logical rounds simulated
// and engine rounds actually stepped, accumulated over every completed Run.
// The ratio is the measured win of the event-driven clock.
func SimulatedRounds() (logical, stepped int64) {
	return totalSimulated.Load(), totalStepped.Load()
}

// agentState is the engine-side state of one agent. The fields the round
// loop reads in every stepped round come first.
type agentState struct {
	node     int
	awake    bool
	halted   bool
	sleeping bool       // suspended on a bulk instruction the engine advances without resuming it
	wake     wakeWindow // while sleeping: when the pending instruction ends (see compileWake)
	walk     walkState  // in-progress bulk walk (walk.n > 0), one engine-computed move per round

	wokeAt    int
	entryPort int
	api       *API

	// next resumes the program's coroutine (nil until the agent first
	// runs). It returns the next instruction submitted, or false once the
	// program has returned or panicked.
	next func() (instruction, bool)

	spec      AgentSpec
	haltRound int
	report    Report // set by the program's coroutine when the program returns
	err       error  // set by the program's coroutine when the program panics
}

// start turns the agent's program into a coroutine and sets st.next. The
// returned stop ends a program still suspended on an instruction — its
// submit panics errRunAborted, which unwinds it — and returns once the
// coroutine has exited; after the program has ended it does nothing.
func (st *agentState) start() (stop func()) {
	st.next, stop = iter.Pull(func(yield func(instruction) bool) {
		defer func() {
			// A panic must not propagate through next: report it as the
			// agent's failure instead.
			if r := recover(); r != nil && r != errRunAborted {
				st.err = fmt.Errorf("agent program panicked: %v", r)
			}
		}()
		st.api.yield = yield
		st.report = st.spec.Program(st.api)
	})
	return stop
}

// walkState is the engine-side progress of one bulk walk: the forward moves
// of its walkSpec, then the retrace of the last back of them in reverse.
// Each agent has one; its entries buffer is reused across walks.
type walkState struct {
	walkSpec
	fwd     int   // forward moves
	n       int   // all moves, fwd + back; 0 when no walk is in progress
	i       int   // next move index
	entry   int   // UXS-rule entry state (offsets mode), 0 at walk start
	minCard int   // smallest post-move CurCard so far
	entries []int // entry ports of the forward moves, recorded when back > 0
}

// begin starts a walk, keeping the entries buffer of earlier ones.
func (w *walkState) begin(spec walkSpec) {
	w.walkSpec = spec
	w.fwd = len(spec.offsets) + len(spec.ports)
	w.n = w.fwd + spec.back
	w.i, w.entry, w.minCard = 0, 0, maxInt
	w.entries = w.entries[:0]
}

// nextPort computes the port of move i at the given node and advances. A
// retrace move takes the entry port of the forward move it undoes.
func (w *walkState) nextPort(g *graph.Graph, node int) (int, error) {
	var p int
	switch {
	case w.i >= w.fwd:
		p = w.entries[2*w.fwd-1-w.i]
	case w.offsets != nil:
		p = (w.entry + w.offsets[w.i]) % g.Degree(node)
		w.i++
		return p, nil
	default:
		p = w.ports[w.i]
	}
	if !g.HasPort(node, p) {
		return 0, fmt.Errorf("walked nonexistent port %d at a degree-%d node", p, g.Degree(node))
	}
	w.i++
	return p, nil
}

// moved records the entry port of the move just applied.
func (w *walkState) moved(entry int) {
	w.entry = entry
	if w.back > 0 && w.i <= w.fwd {
		w.entries = append(w.entries, entry)
	}
}

// Run executes the scenario to completion (all agents halted) and returns the
// result. It is deterministic: identical scenarios produce identical traces.
//
// Each agent's program runs as an iter.Pull coroutine: the engine resumes it
// with an observation and waits while it runs to its next instruction (see
// api.go) or returns, so programs never run concurrently with the engine or
// with each other. No program outlives Run; one still suspended when the run
// fails is unwound before Run returns.
//
// The engine is event-driven: agents submit bulk wait instructions, so a
// sleeping agent costs nothing per round, and when every awake agent is
// mid-wait and no engine-evaluable condition, wait expiry or scheduled
// wake-up can fire before round R, the global clock jumps straight to R.
// Observations are invariant while nobody moves — positions, and hence every
// CurCard, are frozen — so the fast-forward is unobservable to agents. The
// engine falls back to per-round stepping whenever Scenario.OnRound is set
// (the hook must see every round) or an agent keeps itself live through
// per-round calls.
//
// The round loop keeps its state incrementally: node occupancy changes only
// with applied moves, and each instruction's wake test is compiled once,
// when the engine accepts it.
func Run(sc Scenario) (*RunResult, error) {
	if err := Validate(sc); err != nil {
		return nil, err
	}
	maxRounds := sc.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	g := sc.Graph
	n := len(sc.Agents)
	states := make([]agentState, n)
	// cardAt[v] is CurCard at node v: every agent body there counts,
	// dormant and halted agents included. Seeded from the start nodes, it
	// is updated by every applied move.
	cardAt := make([]int, g.N())
	for i, spec := range sc.Agents {
		states[i] = agentState{
			node:      spec.Start,
			entryPort: -1,
			wokeAt:    -1,
			haltRound: -1,
			spec:      spec,
			api:       &API{label: spec.Label, oracleSize: g.N()},
		}
		cardAt[spec.Start]++
	}

	var view RoundView
	if sc.OnRound != nil {
		view = RoundView{Positions: make([]int, n), Awake: make([]bool, n), Halted: make([]bool, n)}
	}

	type pending struct {
		st   *agentState
		port int
	}
	moves := make([]pending, 0, n)

	asleep := n // agents not yet woken
	live := n   // agents not yet halted
	lastHalt := 0
	steppedRounds := 0
	totalMoves := 0
	for r := 0; ; {
		if r > maxRounds {
			return nil, fmt.Errorf("%w (%d)", ErrMaxRounds, maxRounds)
		}
		steppedRounds++
		if asleep > 0 {
			// An agent not yet awake wakes at its adversarial wake round,
			// or when a woken agent stands on its start node. It has not
			// moved and start nodes are unique, so any other body at its
			// node is a woken visitor: a CurCard above 1 is a visit.
			for i := range states {
				st := &states[i]
				if !st.awake && (st.spec.WakeRound == r || cardAt[st.node] > 1) {
					st.awake = true
					st.wokeAt = r
					asleep--
				}
			}
		}
		if sc.OnRound != nil {
			for i := range states {
				st := &states[i]
				view.Positions[i] = st.node
				view.Awake[i] = st.awake
				view.Halted[i] = st.halted
			}
			view.Round = r
			sc.OnRound(view)
		}
		// Deliver observations and collect instructions, in fixed agent
		// order. Sleeping agents whose instruction neither ends nor fires
		// are passed over without resuming their programs.
		moves = moves[:0]
		for i := range states {
			st := &states[i]
			if st.halted || !st.awake {
				continue
			}
			card := cardAt[st.node]
			walkMin := 0
			if st.sleeping {
				if w := &st.walk; w.n > 0 {
					// Every round of a walk is post-move: fold the fresh
					// CurCard into the walk minimum before the wake test.
					w.minCard = min(w.minCard, card)
					if w.i < w.n && !st.wake.wakes(r, card) {
						// Execute the next move engine-side, no handoff.
						port, err := w.nextPort(g, st.node)
						if err != nil {
							return nil, fmt.Errorf("sim: agent label %d %v in round %d",
								st.spec.Label, err, r)
						}
						moves = append(moves, pending{st: st, port: port})
						continue
					}
					// Walk complete, or a condition fired mid-walk: wake the
					// agent with the walk minimum attached.
					walkMin = w.minCard
					w.n = 0
				} else if !st.wake.wakes(r, card) {
					continue
				}
				st.sleeping = false
			}
			st.api.obs = observation{
				localRound: r - st.wokeAt,
				degree:     g.Degree(st.node),
				entryPort:  st.entryPort,
				curCard:    card,
				walkMin:    walkMin,
			}
			if st.next == nil {
				stop := st.start()
				defer stop()
			}
			in, ok := st.next()
			if st.err != nil {
				return nil, fmt.Errorf("sim: agent %d (label %d) failed in round %d: %w",
					i, st.spec.Label, r, st.err)
			}
			if !ok {
				st.halted = true
				st.haltRound = r
				lastHalt = r
				live--
				continue
			}
			st.sleeping = true
			switch {
			case in.port >= 0:
				if !g.HasPort(st.node, in.port) {
					return nil, fmt.Errorf("sim: agent label %d took nonexistent port %d at a degree-%d node in round %d",
						st.spec.Label, in.port, g.Degree(st.node), r)
				}
				moves = append(moves, pending{st: st, port: in.port})
				st.wake = compileWake(r+1, nil, st.wokeAt)
			case in.walk != nil:
				w := &st.walk
				w.begin(*in.walk)
				port, err := w.nextPort(g, st.node)
				if err != nil {
					return nil, fmt.Errorf("sim: agent label %d %v in round %d",
						st.spec.Label, err, r)
				}
				moves = append(moves, pending{st: st, port: port})
				// Woken by walk completion or a condition.
				st.wake = compileWake(never, in.conds, st.wokeAt)
			default:
				expiry := never
				if in.rounds >= 0 {
					expiry = r + max(in.rounds, 1)
				}
				st.wake = compileWake(expiry, in.conds, st.wokeAt)
			}
		}
		// Apply all moves simultaneously.
		totalMoves += len(moves)
		for _, mv := range moves {
			st := mv.st
			to, entry := g.Traverse(st.node, mv.port)
			cardAt[st.node]--
			cardAt[to]++
			st.node = to
			st.entryPort = entry
			if st.walk.n > 0 {
				st.walk.moved(entry)
			}
		}
		if live == 0 {
			break
		}
		if sc.OnRound != nil || len(moves) > 0 {
			// Per-round stepping: the hook observes every round, and a move
			// changes positions, so the next round must be processed (cards
			// and visit-wakes may shift, and walkers move every round).
			r++
			continue
		}
		r = nextEventRound(states, r, cardAt, maxRounds)
	}

	totalSimulated.Add(int64(lastHalt))
	totalStepped.Add(int64(steppedRounds))
	res := &RunResult{Rounds: lastHalt, Agents: make([]AgentResult, n), SteppedRounds: steppedRounds, Moves: totalMoves}
	for i := range states {
		st := &states[i]
		res.Agents[i] = AgentResult{
			Label:      st.spec.Label,
			Halted:     st.halted,
			HaltRound:  st.haltRound,
			FinalNode:  st.node,
			WokenRound: st.wokeAt,
			Report:     st.report,
		}
	}
	return res, nil
}

// nextEventRound returns the next global round at which anything observable
// can happen after round r: a bulk wait expires, an armed condition could
// fire, or the adversary wakes an agent. Every round strictly between can be
// skipped: no agent moved in round r (a mover's next observation is due at
// r+1, which caps the result), so positions — and with them every CurCard
// and visit-triggered wake — are frozen. When nothing can happen, the result
// is maxRounds+1: the per-round engine would grind to the budget and fail
// with ErrMaxRounds, so the clock jumps there directly.
func nextEventRound(states []agentState, r int, cardAt []int, maxRounds int) int {
	next := maxRounds + 1
	for i := range states {
		st := &states[i]
		switch {
		case st.halted:
		case !st.awake:
			// A visit cannot newly wake an agent while positions are
			// frozen; a wake caused by this round's moves is covered by the
			// movers' observation at r+1.
			if st.spec.WakeRound > r {
				next = min(next, st.spec.WakeRound)
			}
		case st.walk.n > 0 || st.wake.wakes(r+1, cardAt[st.node]):
			// Every awake non-halted agent is sleeping here: each
			// interaction ends with a halt or a new pending instruction. A
			// walker moved this round, so this branch only catches a wake
			// test that already passes at the frozen CurCard.
			next = min(next, r+1)
		default:
			// The card lies in the window, so only the deadline (after r+1,
			// or never) can end the wait.
			next = min(next, st.wake.deadline)
		}
	}
	return next
}

// Validate checks a scenario up front — duplicate or non-positive labels,
// duplicate or out-of-range start nodes, invalid wake rounds, missing
// programs, nobody awake at round 0 — and returns a descriptive error
// instead of leaving the engine to misbehave mid-run. Run calls it first;
// spec compilation applies the same checks to compiled scenarios.
func Validate(sc Scenario) error {
	if sc.Graph == nil || len(sc.Agents) == 0 {
		return ErrNoAgents
	}
	labels := map[int]bool{}
	starts := map[int]bool{}
	haveZero := false
	for _, a := range sc.Agents {
		if a.Label <= 0 {
			return fmt.Errorf("%w: %d", ErrBadLabel, a.Label)
		}
		if labels[a.Label] {
			return fmt.Errorf("%w: %d", ErrDuplicateLabel, a.Label)
		}
		labels[a.Label] = true
		if a.Start < 0 || a.Start >= sc.Graph.N() {
			return fmt.Errorf("%w: %d", ErrBadStart, a.Start)
		}
		if starts[a.Start] {
			return fmt.Errorf("%w: %d", ErrDuplicateStart, a.Start)
		}
		starts[a.Start] = true
		if a.WakeRound == 0 {
			haveZero = true
		}
		if a.WakeRound < DormantUntilVisited {
			return fmt.Errorf("sim: invalid wake round %d", a.WakeRound)
		}
		if a.Program == nil {
			return fmt.Errorf("sim: agent label %d has no program", a.Label)
		}
	}
	if !haveZero {
		return ErrNoWake
	}
	return nil
}
