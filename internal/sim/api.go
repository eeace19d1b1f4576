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
// one-round move, while WaitRounds(x), WaitUntil(cond), the walks and
// RunSegments each submit a single segment run — waits and walks the
// engine executes in order without resuming the program, not one handoff
// per round — annotated with the declarative Conditions (condition.go)
// that may cut it short. Because the engine sees wait intent, walk routes
// and interruption conditions up front, it can fast-forward the global
// clock over stretches in which every awake agent is idle or walking
// through quiet rounds (engine.go), which is what makes the paper's
// astronomically wait-heavy algorithms simulable at scale.
package sim

import "fmt"

// observation is what an agent perceives at the start of a round.
type observation struct {
	localRound int // rounds since this agent woke (0 in the wake round)
	degree     int
	entryPort  int // port through which the agent last entered; -1 before any move
	curCard    int // number of agents (incl. self) at the current node

	runMin int // set only when the observation ends a segment run: its minimum CurCard (maxInt: none)
}

// instruction is what an agent submits to the engine for its next rounds:
// a one-round move through a port, or a segment run — waits and walks the
// engine executes one after another without resuming the program. A run
// ends early as soon as one of the attached armed conditions holds,
// handing control back to the agent for the usual interrupt check.
type instruction struct {
	port     int       // >= 0: move through this port (other fields ignored)
	segs     []Segment // the run, read only while the program is suspended on it
	conds    []armedCond
	startMin bool // the run's minimum includes each walk's start card
}

// Segment is one step of a segment run (API.RunSegments): a wait of some
// rounds (WaitSegment) or a walk (WalkSegment). A run skips empty
// segments: waits of no rounds and walks of no moves.
type Segment struct {
	wait  int   // rounds of a wait; untilCond: until a condition fires
	walk  []int // a walk's offsets, or its literal ports when ports is set
	back  int   // retrace moves of an offsets walk
	ports bool  // walk holds literal ports (WalkPorts)
}

// untilCond is the length of a wait that only a condition ends.
const untilCond = -1

// WaitSegment is a run's wait of n rounds; n <= 0 gives an empty segment.
func WaitSegment(n int) Segment { return Segment{wait: max(n, 0)} }

// WalkSegment is a walk under WalkOffsets' rules: len(offsets) moves by the
// universal-exploration rule, then a retrace of the last back of them. back
// must lie in [0, len(offsets)]; any other value is a program bug and
// panics. The run reads offsets only while the program is suspended on it.
func WalkSegment(offsets []int, back int) Segment {
	if back < 0 || back > len(offsets) {
		panic(fmt.Sprintf("sim: WalkOffsets retrace of %d moves outside [0, %d]", back, len(offsets)))
	}
	return Segment{walk: offsets, back: back}
}

// empty reports whether a run skips the segment.
func (s *Segment) empty() bool { return len(s.walk) == 0 && s.wait == 0 }

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
	// reads an instruction's segments and conditions only while the
	// program is suspended on it.
	segBuf  [1]Segment
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
	if x > 0 {
		a.runOne(Segment{wait: x}, false)
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
	waited, _ := a.waitCond(cond, untilCond)
	return waited
}

// WaitUntilFor waits until cond holds, but at most max rounds. It returns
// the number of rounds waited and whether the condition fired (false when the
// budget elapsed first). A true condition on entry returns (0, true).
func (a *API) WaitUntilFor(cond Condition, max int) (waited int, fired bool) {
	return a.waitCond(cond, max)
}

// waitCond implements WaitUntil (budget untilCond) and WaitUntilFor: one
// wait of the remaining budget with cond attached, repeated while neither
// cond nor the budget ends it.
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
		rem := untilCond
		if budget >= 0 {
			rem = budget - waited
		}
		before := a.obs.localRound
		a.runOne(Segment{wait: rem}, false, ac)
		waited += a.obs.localRound - before
	}
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
// then retraces the last back of those moves in reverse, one per round,
// each through the port by which the move it undoes entered its node:
// WalkOffsets(xs, len(xs)) is a whole EXPLO, out and back to the start. It
// returns the smallest CurCard observed after any of the moves.
//
// The whole walk, retrace included, is ONE engine-side instruction: the
// engine computes each port itself and keeps the walk's trajectory for the
// retrace, so no agent handoff happens until the walk completes or an
// enclosing condition (RunUntil) fires — interrupting mid-walk exactly as
// per-round stepping would. back must lie in [0, len(offsets)]; any other
// value is a program bug and panics. Offsets must not be negative: a walk
// that reaches one fails the run, as a nonexistent port does.
func (a *API) WalkOffsets(offsets []int, back int) (minCard int) {
	seg := WalkSegment(offsets, back)
	if len(offsets) == 0 {
		return a.obs.curCard
	}
	return a.runOne(seg, false)
}

// WalkPorts performs len(ports) moves, one per round, taking the given ports
// literally, as one engine-side instruction (see WalkOffsets). It returns
// the smallest CurCard observed after any of the moves. A nonexistent port
// aborts the run, as with TakePort.
func (a *API) WalkPorts(ports []int) (minCard int) {
	if len(ports) == 0 {
		return a.obs.curCard
	}
	return a.runOne(Segment{walk: ports, ports: true}, false)
}

// RunSegments executes segs in order as ONE instruction: the engine crosses
// from each segment to the next itself, in the round where the program
// would have submitted it, so a run behaves round for round like the same
// waits and walks submitted one at a time. An enclosing condition
// (RunUntil) that fires inside the run, or on a segment boundary,
// interrupts it exactly as it would those calls. Empty segments are
// skipped.
//
// It returns the smallest CurCard observed at the start of any walk of the
// run and after each of its moves — for a run of one EXPLO, what
// ues.Sequence.ExploMinCard returns — or the current CurCard when the run
// makes no move. The engine reads segs, and the walks' offsets, only while
// the program is suspended on the run, so the program may reuse the slice
// for its next run.
func (a *API) RunSegments(segs []Segment) (minCard int) {
	for i := range segs {
		if !segs[i].empty() {
			return a.runSegs(segs, true)
		}
	}
	return a.obs.curCard
}

// runOne submits the one-segment run seg (see runSegs).
func (a *API) runOne(seg Segment, startMin bool, extra ...armedCond) (minCard int) {
	a.segBuf[0] = seg
	return a.runSegs(a.segBuf[:], startMin, extra...)
}

// runSegs submits segs, which hold a nonempty segment, as one instruction
// with every active RunUntil condition plus extra attached, then re-checks
// the frames on wake so a fired condition unwinds the run mid-flight,
// exactly as under per-round stepping. It returns the run's minimum CurCard
// (see RunSegments; walk start cards only when startMin is set).
func (a *API) runSegs(segs []Segment, startMin bool, extra ...armedCond) (minCard int) {
	a.submit(instruction{port: -1, segs: segs, conds: a.armed(extra), startMin: startMin})
	minCard = a.obs.runMin
	if minCard == maxInt {
		minCard = a.obs.curCard
	}
	a.checkInterrupts()
	return minCard
}

// armed returns the conditions of every active RunUntil frame plus extra,
// in condBuf.
func (a *API) armed(extra []armedCond) []armedCond {
	a.condBuf = append(append(a.condBuf[:0], extra...), a.frames...)
	return a.condBuf
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
