package gather

import (
	"fmt"

	"nochatter/internal/bits"
	"nochatter/internal/sim"
	"nochatter/internal/tz"
	"nochatter/internal/ues"
)

// maxPhases is a defensive cap far above the paper's bound of
// ⌊log N⌋ + 2ℓ + 2 phases for any practical N and label set; reaching it
// indicates a bug rather than a legitimately long run.
const maxPhases = 4096

// NewProgram returns the agent program executing GatherKnownUpperBound
// (Algorithm 3). The exploration sequence is the operational form of the
// known upper bound N: a public constant shared by all agents.
//
// When the program returns, the agent has declared gathering; the Report
// carries the elected leader's label (the paper's λ), identical for all
// agents — the leader-election by-product of Theorem 3.1.
func NewProgram(seq *ues.Sequence) sim.Program {
	tm := Timing{Seq: seq}
	return func(a *sim.API) sim.Report {
		lambda := Execute(a, tm)
		return sim.Report{Leader: lambda}
	}
}

// Execute runs Algorithm 3 to completion and returns the elected leader
// label λ. On return the agent is gathered with the whole team: every agent
// of the run returns in the same round at the same node with the same λ
// (Theorem 3.1). Composite protocols (gossiping) continue from this state.
func Execute(a *sim.API, tm Timing) int {
	t := tm.TExplo()
	explo := tm.Seq.ExploSegment()
	// Phase 0 (lines 2-3): wake every dormant agent, return to start, wait.
	tm.Seq.Explo(a)
	a.WaitRounds(t)

	// Each fixed schedule of a phase is one segment run, built in a buffer
	// this agent reuses for every run: the engine reads it only while the
	// agent is suspended on the run.
	var segs []sim.Segment
	for i := 1; ; i++ {
		if i > maxPhases {
			panic(fmt.Sprintf("gather: exceeded %d phases; algorithm bug", maxPhases))
		}
		c := a.CurCard()
		lambda := 0
		// The paper's interruption condition "as soon as CurCard > c" in
		// declarative form: the engine evaluates it while the agent sleeps
		// through the phase's runs, so whole idle stretches are
		// fast-forwarded instead of stepped.
		moreAgents := sim.CardAtLeast(c + 1)

		// Lines 8-14: meeting attempt by synchronized exploration.
		a.RunUntil(moreAgents, func(a *sim.API) {
			segs = append(segs[:0], sim.WaitSegment(tm.D(i)), explo, sim.WaitSegment(t), explo)
			a.RunSegments(segs)
		})

		if a.CurCard() > c {
			// Line 16: met a new group; let the dust settle.
			WaitStable(a, tm.D(i+1))
		} else {
			// Lines 18-22: movement-encoded communication within the group.
			l, _ := communicate(a, tm, i, bits.LabelCode(a.Label()), true, segs)
			if dec, ok := bits.FindCodeword(l); ok {
				if v, err := bits.ParseBin(dec); err == nil {
					lambda = v
				}
			}
			// Lines 23-29: break inter-group invisibility with TZ(λ).
			a.RunUntil(moreAgents, func(a *sim.API) {
				segs = append(segs[:0], sim.WaitSegment(t))
				segs = tz.New(lambda, tm.Seq).Segments(segs, tm.D(i))
				segs = append(segs, sim.WaitSegment(t), explo)
				a.RunSegments(segs)
			})
			if a.CurCard() > c {
				// Line 31.
				WaitStable(a, tm.D(i+1))
			}
		}

		// Line 34.
		a.WaitRounds(tm.D(i + 1))
		// Lines 35-37.
		if a.CurCard() == c && lambda != 0 {
			return lambda
		}
	}
}
