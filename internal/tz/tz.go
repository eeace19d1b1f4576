// Package tz implements the TZ(L) rendezvous procedure used as a black box
// by Algorithm 3 of the paper (there instantiated with the Ta-Shma–Zwick
// construction).
//
// Contract required by the paper (and delivered here): if two agents (or two
// cohesive groups) execute TZ with distinct parameters L1 != L2, starting at
// most T(EXPLO)/2 rounds apart, and both keep executing, then they are
// co-located in some round within MeetBound(seq, k) rounds of the later
// start, where k bounds the bit length of the smaller parameter.
//
// Construction (DESIGN.md, substitution 2): the parameter is transformed with
// the prefix-free code of package bits, so two distinct parameters differ at
// some position j no later than the end of the shorter transformed string.
// Each transformed bit spans one block of 4 slots, each slot lasting E rounds
// (E = effective length of the run's exploration sequence):
//
//	bit 1: [explore-effective, explore-backtrack, wait, wait]
//	bit 0: [wait, wait, explore-effective, explore-backtrack]
//
// At the first differing position, one party's effective cover (which visits
// every node) falls entirely inside the other party's 2E-round waiting
// window for any start delay up to E rounds, so they meet. The pattern
// repeats cyclically, so the procedure can run for any number of rounds.
package tz

import (
	"nochatter/internal/bits"
	"nochatter/internal/sim"
	"nochatter/internal/ues"
)

// Schedule is the movement schedule TZ(λ) for one parameter value.
type Schedule struct {
	pattern string // transformed parameter: Code(Bin(λ))
	seq     *ues.Sequence
}

// New returns the schedule for parameter lambda (λ >= 0; the paper's
// Algorithm 3 calls TZ(0) when no label was learned).
func New(lambda int, seq *ues.Sequence) *Schedule {
	return &Schedule{pattern: bits.Code(bits.Bin(lambda)), seq: seq}
}

// Pattern returns the transformed bit pattern driving the schedule.
func (s *Schedule) Pattern() string { return s.pattern }

// BlockLen returns the duration of one transformed bit: 4 slots of E rounds.
func (s *Schedule) BlockLen() int { return 4 * s.seq.EffectiveLen() }

// PassLen returns the duration of one full pass over the pattern.
func (s *Schedule) PassLen() int { return s.BlockLen() * len(s.pattern) }

// Run executes the schedule for exactly the given number of rounds, cycling
// over the pattern as needed, as one segment run (see Segments). The agent
// may end anywhere in the graph; the paper's Algorithm 3 follows a TZ run
// with a full EXPLO, which works from any node. Interruption (via
// sim.API.RunUntil wrapping the caller) may abandon the walk mid-flight,
// which is the intended semantics.
func (s *Schedule) Run(a *sim.API, rounds int) {
	a.RunSegments(s.Segments(nil, rounds))
}

// Segments appends the schedule's windows for exactly the given number of
// rounds to dst and returns the extended slice. The schedule is cut
// half-block by half-block: each 2E-round waiting window is one wait
// segment, so the engine sees the idle stretch and can fast-forward it, and
// each explore window is one EXPLO segment. Truncation by rounds cuts the
// final window short, matching the per-round semantics.
func (s *Schedule) Segments(dst []sim.Segment, rounds int) []sim.Segment {
	e := s.seq.EffectiveLen()
	if e == 0 || len(s.pattern) == 0 {
		return append(dst, sim.WaitSegment(rounds))
	}
	block := 4 * e
	for t := 0; t < rounds; {
		bit := s.pattern[(t/block)%len(s.pattern)]
		phase := t % block
		segEnd := 2 * e // end of the current half-block within the block
		if phase >= 2*e {
			segEnd = block
		}
		n := min(segEnd-phase, rounds-t)
		// bit 1 explores in the first half-block and waits in the second;
		// bit 0 is the complement. Windows are always entered at their
		// start: t advances in whole (possibly truncated) windows from 0.
		if exploring := (bit == '1') == (phase < 2*e); !exploring {
			dst = append(dst, sim.WaitSegment(n))
		} else {
			dst = append(dst, s.seq.ExploPartialSegment(n))
		}
		t += n
	}
	return dst
}

// MeetBound returns P(N, k): an upper bound on the number of rounds, counted
// from the later of the two starts, within which two schedules with distinct
// parameters of bit length at most k must have met, provided the start delay
// is at most E rounds. The transformed pattern of a k-bit parameter has
// 2k + 2 bits; meeting happens within the first differing block, and one
// extra block absorbs the start delay.
func MeetBound(seq *ues.Sequence, k int) int {
	return 4 * seq.EffectiveLen() * (2*k + 4)
}
