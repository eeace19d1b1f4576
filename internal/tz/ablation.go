package tz

import (
	"nochatter/internal/bits"
	"nochatter/internal/sim"
	"nochatter/internal/ues"
)

// NaiveSchedule is the ablation variant of the rendezvous schedule
// (experiment A1): one 2-slot block per transformed bit — explore on 1, wait
// on 0 — instead of the 4-slot complementary layout of Schedule.
//
// It looks equivalent but its meeting guarantee does not survive the
// delay-tolerance proof: at the first differing bit only the party holding
// the 1 explores, and a misaligned start can place that sweep outside the
// other party's waiting windows; codewords can differ in one direction only
// (e.g. 0001 vs 1101 differ only where the second holds the 1), so no
// role-reversed block is guaranteed. Empirically the naive layout still
// meets on small symmetric rings (the A1 ablation records this): the 4-slot
// layout is a proof-driven design choice whose measured cost is bounded by
// the 2x slot factor.
type NaiveSchedule struct {
	pattern string
	seq     *ues.Sequence
}

// NewNaive returns the naive 2-slot schedule for parameter lambda.
func NewNaive(lambda int, seq *ues.Sequence) *NaiveSchedule {
	return &NaiveSchedule{pattern: bits.Code(bits.Bin(lambda)), seq: seq}
}

// Run executes the naive schedule for exactly rounds rounds, cycling, as
// one segment run (see Segments).
func (s *NaiveSchedule) Run(a *sim.API, rounds int) {
	a.RunSegments(s.Segments(nil, rounds))
}

// Segments appends the naive schedule's windows for exactly rounds rounds
// to dst, block by block like Schedule.Segments: a 0-bit block is one wait
// segment the engine can fast-forward, a 1-bit block an explore segment.
func (s *NaiveSchedule) Segments(dst []sim.Segment, rounds int) []sim.Segment {
	e := s.seq.EffectiveLen()
	if e == 0 || len(s.pattern) == 0 {
		return append(dst, sim.WaitSegment(rounds))
	}
	block := 2 * e
	for t := 0; t < rounds; {
		bit := s.pattern[(t/block)%len(s.pattern)]
		n := min(block-t%block, rounds-t)
		if bit == '0' {
			dst = append(dst, sim.WaitSegment(n))
		} else {
			dst = append(dst, s.seq.ExploPartialSegment(n))
		}
		t += n
	}
	return dst
}

// NaiveMeetBound mirrors MeetBound for the naive block length.
func NaiveMeetBound(seq *ues.Sequence, k int) int {
	return 2 * seq.EffectiveLen() * (2*k + 4)
}
