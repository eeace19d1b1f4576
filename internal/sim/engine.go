package sim

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"

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

	// SteppedRounds counts the run's active rounds: those in which some
	// agent moves, wakes, or is resumed — a segment run crossing to its
	// next segment counts as a resume. The difference to Rounds is what the
	// event-driven clock jumped over; the engine may also fast-forward
	// through active rounds in which walkers only move (see Run), so this
	// is not the number of rounds it processed one by one. With an OnRound
	// hook every round counts. It is diagnostic only and carries no model
	// semantics.
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

// agentState is the engine-side state of one agent. The fields the round
// loop reads in every processed round come first.
type agentState struct {
	node     int
	awake    bool
	halted   bool
	sleeping bool       // suspended on an instruction the engine advances without resuming it
	wake     wakeWindow // while sleeping: the compiled armed conditions (see compileWake)
	run      runState   // while sleeping: progress through the instruction's segments

	wokeAt    int
	entryPort int
	api       *API
	route     route // the trajectory of the agent's last offsets walk

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

// runState is the engine-side progress of a sleeping agent's instruction:
// its current segment and the segments after it, read from the program's
// slice while the program is suspended. A one-round move leaves a run with
// no segments whose wait ends in the next round.
type runState struct {
	rest     []Segment // the segments after the current one
	end      int       // while waiting: the round the wait ends, or never
	walk     walkState // the current walk; walk.n == 0 while waiting
	minCard  int       // the run's minimum CurCard so far (maxInt: none yet)
	startMin bool      // fold each walk's start card into minCard
}

// walkState is the progress of one walk segment: its forward moves, then
// the retrace of the last back of them in reverse.
type walkState struct {
	ports []int // literal ports; nil for an offsets walk, read from the agent's route
	fwd   int   // forward moves
	n     int   // all moves, fwd + back; 0 when no walk is in progress
	i     int   // next move index
}

// route memoizes the trajectory of an agent's last offsets walk: for each
// forward move, the exit port, the node reached and the entry port there.
// A walk from the same start whose offsets are a prefix of the route's
// reads its forward moves from it, and its retrace backwards, instead of
// computing ports and traversing edges. offsets is a private copy, because
// the engine reads program slices only while the program is suspended. A
// route stops before the first negative offset: no walk may take it.
type route struct {
	start   int
	offsets []int
	steps   []routeStep
}

type routeStep struct{ port, to, entry int }

// prepare makes rt the route of offsets from start, keeping it when it
// already covers them.
func (rt *route) prepare(g *graph.Graph, start int, offsets []int) {
	if rt.start == start && len(offsets) <= len(rt.offsets) && slices.Equal(offsets, rt.offsets[:len(offsets)]) {
		return
	}
	rt.start = start
	rt.offsets = append(rt.offsets[:0], offsets...)
	rt.steps = rt.steps[:0]
	node, entry := start, 0
	for _, x := range offsets {
		if x < 0 {
			break
		}
		p := (entry + x) % g.Degree(node)
		to, e := g.Traverse(node, p)
		rt.steps = append(rt.steps, routeStep{port: p, to: to, entry: e})
		node, entry = to, e
	}
}

// next returns the destination and entry port of an offsets walk's next
// move, read from its route rt, and advances. A retrace move leaves through
// the entry port of the forward move it undoes and arrives where that move
// left from.
func (w *walkState) next(rt *route) (to, entry int) {
	i := w.i
	w.i++
	if i < w.fwd {
		s := &rt.steps[i]
		return s.to, s.entry
	}
	k := 2*w.fwd - 1 - i
	to = rt.start
	if k > 0 {
		to = rt.steps[k-1].to
	}
	return to, rt.steps[k].port
}

// onRoute returns how many more moves of the agent's offsets walk its route
// holds: all of them, unless the walk reaches a negative offset.
func (st *agentState) onRoute() int {
	w := &st.run.walk
	if len(st.route.steps) < w.fwd {
		return len(st.route.steps) - w.i
	}
	return w.n - w.i
}

// move is one agent's move in the current round, applied with all others
// at the round's end.
type move struct {
	st        *agentState
	to, entry int
}

// walkMove returns the agent's next walk move, made in round r, and
// advances the walk. A nonexistent port or a negative offset fails the run.
func (st *agentState) walkMove(g *graph.Graph, r int) (move, error) {
	w := &st.run.walk
	var err error
	switch {
	case w.ports != nil:
		p := w.ports[w.i]
		if !g.HasPort(st.node, p) {
			err = fmt.Errorf("walked nonexistent port %d at a degree-%d node", p, g.Degree(st.node))
			break
		}
		w.i++
		to, entry := g.Traverse(st.node, p)
		return move{st, to, entry}, nil
	case st.onRoute() > 0:
		to, entry := w.next(&st.route)
		return move{st, to, entry}, nil
	default:
		err = fmt.Errorf("walked negative offset %d", st.route.offsets[w.i])
	}
	return move{}, fmt.Errorf("sim: agent label %d %v in round %d", st.spec.Label, err, r)
}

// advance starts the next nonempty segment of the agent's run in round r,
// at CurCard card. It reports false when no segment is left.
func (st *agentState) advance(g *graph.Graph, r, card int) bool {
	ru := &st.run
	w := &ru.walk
	w.n = 0
	for len(ru.rest) > 0 {
		seg := &ru.rest[0]
		ru.rest = ru.rest[1:]
		switch {
		case len(seg.walk) > 0:
			w.i, w.fwd = 0, len(seg.walk)
			if seg.ports {
				w.ports, w.n = seg.walk, w.fwd
			} else {
				w.ports, w.n = nil, w.fwd+seg.back
				st.route.prepare(g, st.node, seg.walk)
			}
			if ru.startMin {
				ru.minCard = min(ru.minCard, card)
			}
			return true
		case seg.wait == untilCond:
			ru.end = never
			return true
		case seg.wait > 0:
			ru.end = r + seg.wait
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
// The engine is event-driven. Agents submit segment runs — waits and walks
// the engine executes without resuming the program, crossing from one
// segment to the next itself — so a sleeping agent costs nothing per round
// and a walking one only its moves. When every awake agent is mid-wait and
// no engine-evaluable condition, wait expiry or scheduled wake-up can fire
// before round R, the global clock jumps straight to R: positions, and
// hence every CurCard, are frozen. After a round with moves, the engine
// applies the quiet rounds that follow in bulk (see quietBuf.apply):
// rounds in which walkers move along their routes, no CurCard changes and
// nothing else happens. Neither shortcut is observable to agents. The
// engine falls back to per-round stepping whenever Scenario.OnRound is
// set: the hook must see every round.
//
// The round loop keeps its state incrementally: node occupancy changes only
// with applied moves, and each instruction's wake test is compiled once,
// when the engine accepts it.
func Run(sc Scenario) (*RunResult, error) {
	res, _, err := run(sc)
	return res, err
}

// run is Run, also returning the number of rounds the round loop processed
// one by one; the others of the run's SteppedRounds were quiet rounds
// applied in bulk.
func run(sc Scenario) (res *RunResult, processed int, err error) {
	if err := Validate(sc); err != nil {
		return nil, 0, err
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

	moves := make([]move, 0, n)
	var quiet quietBuf

	asleep := n // agents not yet woken
	live := n   // agents not yet halted
	lastHalt := 0
	steppedRounds := 0
	totalMoves := 0
	for r := 0; ; {
		if r > maxRounds {
			return nil, processed, fmt.Errorf("%w (%d)", ErrMaxRounds, maxRounds)
		}
		processed++
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
		// order. Sleeping agents whose run neither ends nor fires are
		// passed over without resuming their programs.
		moves = moves[:0]
		for i := range states {
			st := &states[i]
			if st.halted || !st.awake {
				continue
			}
			card := cardAt[st.node]
			runMin := 0
			if st.sleeping {
				ru := &st.run
				w := &ru.walk
				if w.n > 0 {
					// Every round of a walk is post-move: fold the fresh
					// CurCard into the run's minimum before the wake test.
					ru.minCard = min(ru.minCard, card)
				}
				// Sleep on while no condition fires and the current
				// segment, or the next one, goes on.
				if !st.wake.wakes(r, card) && (w.i < w.n || (w.n == 0 && r < ru.end) || st.advance(g, r, card)) {
					if w.n > 0 {
						mv, err := st.walkMove(g, r)
						if err != nil {
							return nil, processed, err
						}
						moves = append(moves, mv)
					}
					continue
				}
				// The run is over, or a condition fired: wake the agent
				// with the run's minimum attached.
				runMin = ru.minCard
				w.n = 0
				st.sleeping = false
			}
			st.api.obs = observation{
				localRound: r - st.wokeAt,
				degree:     g.Degree(st.node),
				entryPort:  st.entryPort,
				curCard:    card,
				runMin:     runMin,
			}
			if st.next == nil {
				stop := st.start()
				defer stop()
			}
			in, ok := st.next()
			if st.err != nil {
				return nil, processed, fmt.Errorf("sim: agent %d (label %d) failed in round %d: %w",
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
			ru := &st.run
			if in.port >= 0 {
				if !g.HasPort(st.node, in.port) {
					return nil, processed, fmt.Errorf("sim: agent label %d took nonexistent port %d at a degree-%d node in round %d",
						st.spec.Label, in.port, g.Degree(st.node), r)
				}
				to, entry := g.Traverse(st.node, in.port)
				moves = append(moves, move{st, to, entry})
				st.wake = compileWake(nil, st.wokeAt)
				ru.rest, ru.end = nil, r+1
				continue
			}
			st.wake = compileWake(in.conds, st.wokeAt)
			ru.rest, ru.minCard, ru.startMin = in.segs, maxInt, in.startMin
			st.advance(g, r, card) // the API submits only runs with a nonempty segment
			if ru.walk.n > 0 {
				mv, err := st.walkMove(g, r)
				if err != nil {
					return nil, processed, err
				}
				moves = append(moves, mv)
			}
		}
		// Apply all moves simultaneously.
		totalMoves += len(moves)
		for _, mv := range moves {
			st := mv.st
			cardAt[st.node]--
			cardAt[mv.to]++
			st.node = mv.to
			st.entryPort = mv.entry
		}
		if live == 0 {
			break
		}
		r++
		switch {
		case sc.OnRound != nil:
			// Per-round stepping: the hook observes every round.
		case len(moves) > 0:
			// A move changes positions, so cards and visit wakes may shift
			// and walkers move on: round r is processed, unless it starts
			// a stretch of quiet rounds.
			var rounds, moved int
			r, rounds, moved = quiet.apply(states, cardAt, r, maxRounds+1)
			steppedRounds += rounds
			totalMoves += moved
		default:
			r = nextEventRound(states, r-1, cardAt, maxRounds)
		}
	}

	res = &RunResult{Rounds: lastHalt, Agents: make([]AgentResult, n), SteppedRounds: steppedRounds, Moves: totalMoves}
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
	return res, processed, nil
}

// quietBuf holds the per-run buffers of quiet-round detection, allocated
// when a run first has walkers.
type quietBuf struct {
	cards   []int         // per agent, its CurCard when the stretch began
	walkers []*agentState // the agents walking through the stretch
}

// apply applies the quiet rounds from round r on, after a round with moves,
// and returns the first round the loop must process, with the number of
// rounds applied and their moves. A round is quiet when walk moves are its
// only event:
//
//   - no agent not yet awake reaches its wake round or shares its node;
//   - every awake agent sleeps on a wait or an offsets walk whose wake test
//     fails, and whose segment goes on;
//   - every agent's CurCard after the round's moves equals its CurCard when
//     the stretch began.
//
// The loop would process such a round by folding each walker's CurCard
// into its minimum and applying the walkers' moves, and nothing else; and
// since no CurCard changes, the next round is quiet too, up to the first
// round that ends a walk or a wait, reaches a condition's deadline or an
// adversarial wake round, or passes limit (maxRounds+1, where the loop
// fails with ErrMaxRounds). Walks of literal ports are not applied in
// bulk: each of their moves checks its port.
func (q *quietBuf) apply(states []agentState, cardAt []int, r, limit int) (next, rounds, moved int) {
	end := limit
	q.walkers = q.walkers[:0]
	for i := range states {
		st := &states[i]
		card := cardAt[st.node]
		switch {
		case st.halted:
		case !st.awake:
			if card > 1 {
				return r, 0, 0
			}
			if st.spec.WakeRound >= r {
				end = min(end, st.spec.WakeRound)
			}
		case st.wake.wakes(r, card):
			return r, 0, 0
		case st.run.walk.n > 0:
			if st.run.walk.ports != nil {
				return r, 0, 0
			}
			end = min(end, st.wake.deadline, r+st.onRoute())
			if q.walkers == nil {
				q.walkers = make([]*agentState, 0, len(states))
			}
			q.walkers = append(q.walkers, st)
		default:
			end = min(end, st.wake.deadline, st.run.end)
		}
	}
	if end <= r || len(q.walkers) == 0 {
		return r, 0, 0
	}
	if q.cards == nil {
		q.cards = make([]int, len(states))
	}
	for i := range states {
		q.cards[i] = cardAt[states[i].node]
	}
	// CurCard is constant across the stretch: fold it into each walker's
	// minimum once.
	for _, st := range q.walkers {
		st.run.minCard = min(st.run.minCard, cardAt[st.node])
	}
	for next = r; next < end; {
		for _, st := range q.walkers {
			to, entry := st.run.walk.next(&st.route)
			cardAt[st.node]--
			cardAt[to]++
			st.node = to
			st.entryPort = entry
		}
		next++
		for i := range states {
			if cardAt[states[i].node] != q.cards[i] {
				return next, next - r, (next - r) * len(q.walkers)
			}
		}
	}
	return next, next - r, (next - r) * len(q.walkers)
}

// nextEventRound returns the next global round at which anything observable
// can happen after round r: a wait expires, an armed condition could fire,
// or the adversary wakes an agent. Every round strictly between can be
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
		case st.run.walk.n > 0 || st.wake.wakes(r+1, cardAt[st.node]):
			// Every awake non-halted agent is sleeping here: each
			// interaction ends with a halt or a new pending instruction. A
			// walker moved this round, so this branch only catches a wake
			// test that already passes at the frozen CurCard.
			next = min(next, r+1)
		default:
			// The card lies in the window, so only the wait's end or a
			// condition's deadline (after r+1, or never) can wake it.
			next = min(next, st.wake.deadline, st.run.end)
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
