// Package sim implements a deterministic synchronous simulator for teams of
// mobile agents on anonymous port-labeled graphs, following the model of
// Bouchard, Dieudonné and Pelc (PODC 2020): agents move in lock-step rounds,
// cannot mark nodes, cannot exchange any information, and the only signal
// about other agents is CurCard — the number of agents co-located with the
// observer in the current round.
//
// Agent algorithms are ordinary Go functions written in blocking style
// against *API; the engine runs each one as a coroutine that suspends at
// every instruction it submits. The agent↔engine contract is an
// instruction contract the engine can reason about: TakePort submits a
// one-round move, while WaitRounds(x) and WaitUntil(cond) submit a single
// bulk wait instruction — not x per-round handoffs — annotated with the
// declarative Conditions (condition.go) that may cut the wait short.
// Because the engine sees wait intent and interruption conditions up front,
// it can fast-forward the global clock over stretches in which every awake
// agent is idle (engine.go), which is what makes the paper's astronomically
// wait-heavy algorithms simulable at scale.
package sim

import "fmt"

// observation is what an agent perceives at the start of a round.
type observation struct {
	localRound int // rounds since this agent woke (0 in the wake round)
	degree     int
	entryPort  int // port through which the agent last entered; -1 before any move
	curCard    int // number of agents (incl. self) at the current node

	// Walk results, set only when the observation ends a bulk walk.
	walkEntries []int // entry ports recorded during the walk, in move order
	walkMin     int   // smallest CurCard observed after any move of the walk
}

// instruction is what an agent submits to the engine for its next rounds:
// a one-round move through a port, a bulk walk of one move per round, or a
// bulk wait of up to `rounds` rounds (unbounded when rounds < 0). Bulk
// instructions end early as soon as one of the attached armed conditions
// holds, handing control back to the agent for the usual interrupt check.
type instruction struct {
	port   int       // >= 0: move through this port (other fields ignored)
	walk   *walkSpec // non-nil: bulk walk, one move per round
	rounds int       // wait duration in rounds; < 0 means until a condition fires
	conds  []armedCond
}

// walkSpec describes a bulk walk the engine executes without per-round
// agent handoffs. Exactly one of the two fields is non-empty.
type walkSpec struct {
	// offsets drives a universal-exploration-rule walk: in each round take
	// port q = (entry + offsets[i]) mod degree, where entry is the port of
	// last entry WITHIN the walk, starting at 0 (the UXS convention).
	offsets []int
	// ports is a literal walk: take ports[i] in round i (backtracks,
	// shortest-path walks).
	ports []int
}

// Report carries the algorithm-specific results an agent program returns when
// it declares completion.
type Report struct {
	Leader int            `json:"leader,omitempty"` // elected leader label; 0 if the algorithm elects none
	Size   int            `json:"size,omitempty"`   // learned graph size; 0 if not learned
	Gossip map[string]int `json:"gossip,omitempty"` // message -> multiplicity, for gossip algorithms
}

// Program is a complete agent algorithm. The engine runs it as a coroutine:
// each API call that spends rounds suspends the program until the engine
// resumes it with the observation of the round the call ends in, so the
// program runs only while the engine waits for it. It perceives the world
// only through the API. Returning from the program is the model's
// "declare": the agent halts at its current node.
type Program func(a *API) Report

// API is the world interface of a single agent. It belongs to the agent's
// program; methods must not be called from anywhere else.
type API struct {
	label int
	obs   observation            // written by the engine before each resume
	yield func(instruction) bool // suspends the program; false once the run stopped

	oracleSize int // see OracleGraphSize

	frames []armedCond // conditions of the active RunUntil blocks, outermost first

	// Per-instruction buffers, reused for every instruction: the engine
	// reads an instruction's walk and conditions only while the agent is
	// suspended on it.
	walkBuf walkSpec
	condBuf []armedCond
}

// Label returns this agent's own label (a positive integer). Agents never
// learn other agents' labels directly.
func (a *API) Label() int { return a.label }

// LocalRound returns the number of rounds elapsed since this agent woke up
// (0 during the wake round). Agents may count rounds; they have no global
// clock.
func (a *API) LocalRound() int { return a.obs.localRound }

// Degree returns the degree of the current node.
func (a *API) Degree() int { return a.obs.degree }

// EntryPort returns the port through which the agent entered the current
// node, or -1 if it has not moved since waking at its start node.
func (a *API) EntryPort() int { return a.obs.entryPort }

// CurCard returns the number of agents, including this one, present at the
// current node in the current round. This is the model's only inter-agent
// signal.
func (a *API) CurCard() int { return a.obs.curCard }

// Wait spends the current round idle at the current node.
func (a *API) Wait() {
	a.WaitRounds(1)
}

// WaitRounds waits for x consecutive rounds (the paper's "wait x rounds").
//
// The whole wait is submitted to the engine as ONE instruction: the program
// is not resumed until the wait expires or an enclosing condition (RunUntil)
// fires — at which point the usual interrupt unwinding happens exactly as it
// would under per-round stepping.
func (a *API) WaitRounds(x int) {
	for x > 0 {
		x -= a.bulkWait(x)
	}
}

// WaitUntil waits until cond holds, evaluating it against the observation of
// each new round reached (and against the current observation on entry, where
// a true condition makes the call free). It returns the number of rounds
// waited. The wait is engine-evaluated: the program stays suspended in a
// single bulk instruction until the engine observes the condition.
//
// A condition that can never fire stalls the agent; the run then terminates
// with ErrMaxRounds like any non-halting program.
func (a *API) WaitUntil(cond Condition) int {
	waited, _ := a.waitCond(cond, -1)
	return waited
}

// WaitUntilFor waits until cond holds, but at most max rounds. It returns
// the number of rounds waited and whether the condition fired (false when the
// budget elapsed first). A true condition on entry returns (0, true).
func (a *API) WaitUntilFor(cond Condition, max int) (waited int, fired bool) {
	return a.waitCond(cond, max)
}

// waitCond implements WaitUntil (budget < 0) and WaitUntilFor.
func (a *API) waitCond(cond Condition, budget int) (waited int, fired bool) {
	if !cond.valid() {
		panic("sim: invalid Condition (use the condition constructors)")
	}
	ac := armedCond{c: cond, base: a.obs.curCard}
	for {
		if ac.holds(a.obs.curCard, a.obs.localRound) {
			return waited, true
		}
		if budget >= 0 && waited >= budget {
			return waited, false
		}
		rem := -1
		if budget >= 0 {
			rem = budget - waited
		}
		waited += a.bulkWait(rem, ac)
	}
}

// bulkWait submits one wait instruction of up to x rounds (unbounded when
// x < 0), attaching every active RunUntil condition plus extra, and returns
// the number of rounds actually waited. On wake it re-checks the interrupt
// frames, so a fired RunUntil condition unwinds exactly as under per-round
// stepping.
func (a *API) bulkWait(x int, extra ...armedCond) int {
	before := a.obs.localRound
	a.submit(instruction{port: -1, rounds: x, conds: a.armed(extra)})
	a.checkInterrupts()
	return a.obs.localRound - before
}

// armed returns the conditions of every active RunUntil frame plus extra,
// in condBuf.
func (a *API) armed(extra []armedCond) []armedCond {
	a.condBuf = append(append(a.condBuf[:0], extra...), a.frames...)
	return a.condBuf
}

// TakePort leaves the current node through port p and returns the port of
// entry at the destination. Taking a nonexistent port aborts the whole run
// with an error: the algorithms under study never do this, so it is treated
// as a bug, not an agent-visible event.
func (a *API) TakePort(p int) (entryPort int) {
	a.submit(instruction{port: p})
	a.checkInterrupts()
	return a.obs.entryPort
}

// WalkOffsets performs len(offsets) moves, one per round, following the
// universal-exploration rule: in each round the agent leaves through port
// q = (entry + offset) mod degree, where entry is the port of last entry
// within this walk (0 before the first move, per the UXS convention). It
// returns the recorded entry ports — the material for a backtrack via
// WalkPorts — and the smallest CurCard observed after any of the moves.
//
// The whole walk is ONE engine-side instruction: the engine computes each
// port itself, so no agent handoff happens until the walk completes or an
// enclosing condition (RunUntil) fires — interrupting mid-walk exactly as
// per-round stepping would. The returned entries are a fresh slice the
// caller owns.
func (a *API) WalkOffsets(offsets []int) (entries []int, minCard int) {
	if len(offsets) == 0 {
		return nil, a.obs.curCard
	}
	a.walkBuf = walkSpec{offsets: offsets}
	return a.bulkWalk()
}

// WalkPorts performs len(ports) moves, one per round, taking the given ports
// literally, as one engine-side instruction (see WalkOffsets). It returns
// the recorded entry ports and the smallest CurCard observed after any of
// the moves. A nonexistent port aborts the run, as with TakePort.
func (a *API) WalkPorts(ports []int) (entries []int, minCard int) {
	if len(ports) == 0 {
		return nil, a.obs.curCard
	}
	a.walkBuf = walkSpec{ports: ports}
	return a.bulkWalk()
}

// bulkWalk submits the walk in walkBuf as one instruction with every active
// RunUntil condition attached, then re-checks the frames on wake so a fired
// condition unwinds the walk mid-flight, exactly as under per-round
// stepping.
func (a *API) bulkWalk() (entries []int, minCard int) {
	a.submit(instruction{port: -1, walk: &a.walkBuf, conds: a.armed(nil)})
	entries, minCard = a.obs.walkEntries, a.obs.walkMin
	a.checkInterrupts()
	return entries, minCard
}

// OracleGraphSize returns the true number of nodes of the graph.
//
// This is the one privileged call, standing in for the output of the EST
// map-construction procedure (Chalopin–Das–Kosowski) that the paper uses as a
// black box: after an honest covering walk with a stationary token, the real
// procedure has learned the graph size. See DESIGN.md, substitution 3. It
// must only be called by the est package.
func (a *API) OracleGraphSize() int { return a.oracleSize }

// submit hands in to the engine and suspends the program until the engine
// resumes it with the observation of the round the instruction ends in
// (already in a.obs on return). A false yield means the run stopped early:
// panicking errRunAborted unwinds the program, RunUntil frames included.
func (a *API) submit(in instruction) {
	if !a.yield(in) {
		panic(errRunAborted)
	}
}

// errRunAborted unwinds a suspended program when the engine stops early
// (max-rounds exceeded or another agent failed). The program's coroutine
// recovers it (engine.go).
var errRunAborted = fmt.Errorf("sim: run aborted")

// maxInt is the identity of min over CurCard observations.
const maxInt = int(^uint(0) >> 1)
