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

// agentState is the engine-side state of one agent.
type agentState struct {
	spec      AgentSpec
	api       *API
	node      int
	entryPort int
	awake     bool
	wokeAt    int
	halted    bool
	haltRound int
	report    Report // set by the program's coroutine when the program returns
	err       error  // set by the program's coroutine when the program panics

	// next resumes the program's coroutine (nil until the agent first
	// runs). It returns the next instruction submitted, or false once the
	// program has returned or panicked.
	next func() (instruction, bool)

	// Pending bulk instruction: while sleeping, the program stays suspended
	// and the engine advances it without resuming it.
	sleeping bool
	resumeAt int         // global round to deliver the next observation; -1 = only a condition wakes it
	conds    []armedCond // armed wake conditions, engine-evaluated (the agent's API.condBuf)
	walk     walkState   // in-progress bulk walk (walk.spec != nil), one engine-computed move per round
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

// walkState is the engine-side progress of one bulk walk instruction. Each
// agent has one, reset for every walk.
type walkState struct {
	spec    *walkSpec // the agent's API.walkBuf, so only read while the agent is suspended on the walk
	i       int       // next move index
	entry   int       // UXS-rule entry state (offsets mode), 0 at walk start
	entries []int     // entry ports recorded so far
	minCard int       // smallest post-move CurCard so far
}

func (w *walkState) steps() int {
	if w.spec.offsets != nil {
		return len(w.spec.offsets)
	}
	return len(w.spec.ports)
}

// nextPort computes the port of move i at the given node and advances.
func (w *walkState) nextPort(g *graph.Graph, node int) (int, error) {
	if w.spec.offsets != nil {
		q := (w.entry + w.spec.offsets[w.i]) % g.Degree(node)
		w.i++
		return q, nil
	}
	p := w.spec.ports[w.i]
	if !g.HasPort(node, p) {
		return 0, fmt.Errorf("walked nonexistent port %d at a degree-%d node", p, g.Degree(node))
	}
	w.i++
	return p, nil
}

// wakesNow reports whether a sleeping agent must be handed the observation of
// the current round: its bulk wait expired or an armed condition holds.
func (st *agentState) wakesNow(r int, obs observation) bool {
	if st.resumeAt >= 0 && r >= st.resumeAt {
		return true
	}
	for _, ac := range st.conds {
		if ac.holds(obs.curCard, obs.localRound) {
			return true
		}
	}
	return false
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
func Run(sc Scenario) (*RunResult, error) {
	if err := Validate(sc); err != nil {
		return nil, err
	}
	maxRounds := sc.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	n := len(sc.Agents)
	states := make([]*agentState, n)
	for i, spec := range sc.Agents {
		states[i] = &agentState{
			spec:      spec,
			node:      spec.Start,
			entryPort: -1,
			wokeAt:    -1,
			haltRound: -1,
			api:       &API{label: spec.Label, oracleSize: sc.Graph.N()},
		}
	}

	positions := make([]int, n)
	awake := make([]bool, n)
	halted := make([]bool, n)
	// Node-indexed bookkeeping. Entries are reset agent-wise before use, so
	// only slots under a current agent position are ever valid — stale values
	// elsewhere are never read.
	cardAt := make([]int, sc.Graph.N())
	occupiedByWoken := make([]bool, sc.Graph.N())

	type pending struct {
		st   *agentState
		port int
	}
	moves := make([]pending, 0, n)

	lastHalt := 0
	steppedRounds := 0
	totalMoves := 0
	for r := 0; ; {
		if r > maxRounds {
			return nil, fmt.Errorf("%w (%d)", ErrMaxRounds, maxRounds)
		}
		steppedRounds++
		// Wake-ups: an agent not yet awake wakes at its adversarial wake
		// round, or when an already-woken agent occupies its start node,
		// whichever comes first.
		for _, st := range states {
			occupiedByWoken[st.node] = false
		}
		for _, st := range states {
			if st.awake || st.halted {
				occupiedByWoken[st.node] = true
			}
		}
		for _, st := range states {
			if st.awake || st.halted {
				continue
			}
			if st.spec.WakeRound == r || occupiedByWoken[st.node] {
				st.awake = true
				st.wokeAt = r
			}
		}
		// CurCard counts every agent body at the node: dormant and halted
		// agents are physically present.
		for _, st := range states {
			cardAt[st.node] = 0
		}
		for _, st := range states {
			cardAt[st.node]++
		}
		if sc.OnRound != nil {
			for i, st := range states {
				positions[i] = st.node
				awake[i] = st.awake
				halted[i] = st.halted
			}
			sc.OnRound(RoundView{Round: r, Positions: positions, Awake: awake, Halted: halted})
		}
		// Deliver observations and collect instructions, in fixed agent
		// order. Sleeping agents whose wait neither expires nor fires are
		// passed over without resuming their programs.
		moves = moves[:0]
		allHalted := true
		for i, st := range states {
			if st.halted {
				continue
			}
			if !st.awake {
				allHalted = false
				continue
			}
			obs := observation{
				localRound: r - st.wokeAt,
				degree:     sc.Graph.Degree(st.node),
				entryPort:  st.entryPort,
				curCard:    cardAt[st.node],
			}
			if st.sleeping {
				if w := &st.walk; w.spec != nil {
					// Every round of a walk is post-move: fold the fresh
					// CurCard into the walk minimum before wake checks.
					if obs.curCard < w.minCard {
						w.minCard = obs.curCard
					}
					if w.i < w.steps() && !st.wakesNow(r, obs) {
						// Execute the next move engine-side, no handoff.
						port, err := w.nextPort(sc.Graph, st.node)
						if err != nil {
							return nil, fmt.Errorf("sim: agent label %d %v in round %d",
								st.spec.Label, err, r)
						}
						moves = append(moves, pending{st: st, port: port})
						allHalted = false
						continue
					}
					// Walk complete, or a condition fired mid-walk: wake the
					// agent with the (possibly partial) results attached.
					obs.walkEntries = w.entries
					obs.walkMin = w.minCard
					*w = walkState{}
				} else if !st.wakesNow(r, obs) {
					allHalted = false
					continue
				}
				st.sleeping = false
				st.conds = nil
			}
			st.api.obs = obs
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
				continue
			}
			allHalted = false
			if in.port >= 0 {
				if !sc.Graph.HasPort(st.node, in.port) {
					return nil, fmt.Errorf("sim: agent label %d took nonexistent port %d at a degree-%d node in round %d",
						st.spec.Label, in.port, sc.Graph.Degree(st.node), r)
				}
				moves = append(moves, pending{st: st, port: in.port})
				st.sleeping = true
				st.resumeAt = r + 1
				st.conds = nil
			} else if in.walk != nil {
				w := &st.walk
				*w = walkState{spec: in.walk, minCard: maxInt}
				w.entries = make([]int, 0, w.steps())
				port, err := w.nextPort(sc.Graph, st.node)
				if err != nil {
					return nil, fmt.Errorf("sim: agent label %d %v in round %d",
						st.spec.Label, err, r)
				}
				moves = append(moves, pending{st: st, port: port})
				st.sleeping = true
				st.resumeAt = -1 // woken by walk completion or a condition
				st.conds = in.conds
			} else {
				rounds := in.rounds
				if rounds == 0 {
					rounds = 1
				}
				st.sleeping = true
				if rounds < 0 {
					st.resumeAt = -1
				} else {
					st.resumeAt = r + rounds
				}
				st.conds = in.conds
			}
		}
		// Apply all moves simultaneously.
		totalMoves += len(moves)
		for _, mv := range moves {
			to, entry := sc.Graph.Traverse(mv.st.node, mv.port)
			mv.st.node = to
			mv.st.entryPort = entry
			if w := &mv.st.walk; w.spec != nil {
				w.entries = append(w.entries, entry)
				w.entry = entry
			}
		}
		if allHalted {
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
	for i, st := range states {
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
// and visit-triggered wake — are frozen.
func nextEventRound(states []*agentState, r int, cardAt []int, maxRounds int) int {
	next := -1
	consider := func(x int) {
		if x > r && (next < 0 || x < next) {
			next = x
		}
	}
	for _, st := range states {
		if st.halted {
			continue
		}
		if !st.awake {
			if st.spec.WakeRound > r {
				consider(st.spec.WakeRound)
			}
			// A visit cannot newly wake an agent while positions are frozen;
			// a wake caused by this round's moves is covered by the movers'
			// resumeAt of r+1.
			continue
		}
		// Every awake non-halted agent is sleeping at this point: each
		// interaction ends with a halt or a new pending instruction.
		if st.walk.spec != nil {
			// Unreachable in practice: a mid-walk agent moved this round, and
			// any move forces stepping to r+1 before this function is called.
			consider(r + 1)
			continue
		}
		if st.resumeAt >= 0 {
			consider(st.resumeAt)
		}
		card := cardAt[st.node]
		for _, ac := range st.conds {
			if fb := ac.fireBound(r+1, card, st.wokeAt); fb != neverFires {
				consider(fb)
			}
		}
	}
	if next < 0 {
		// No future event exists: every remaining wait is unbounded on
		// conditions that cannot fire while the world is frozen. The
		// per-round engine would grind to the budget and fail with
		// ErrMaxRounds; jump there directly.
		return maxRounds + 1
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
