package gather

import (
	"nochatter/internal/sim"
)

// Communicate is Algorithm 4 of the paper: a group of co-located agents
// "broadcasts" a binary string to its own group using only movements and
// CurCard observations. Each of the i steps lasts exactly 5·T(EXPLO(N))
// rounds, so the whole call lasts 5·i·T(EXPLO(N)) rounds for every agent.
//
// Parameters mirror the paper: i is the number of bits to transact, s must
// be a codeword (an image of the bits.Code map), and participate says
// whether this agent offers its own s for transmission.
//
// Provided the group starts the call together and is "invisible" to other
// groups (Lemma 3.1's third condition), the returned l is the
// lexicographically smallest offered codeword, padded with 1s to length i
// (or 1^i if nobody offered one), and k is the number of agents that offered
// exactly that codeword (or 1 if nobody offered).
func Communicate(a *sim.API, tm Timing, i int, s string, participate bool) (l string, k int) {
	return communicate(a, tm, i, s, participate, nil)
}

// communicate is Communicate, building each step's run in buf. Each step is
// ONE segment run (wait, EXPLO, wait) whose minimum covers the EXPLO from
// its start, as ExploMinCard's does.
func communicate(a *sim.API, tm Timing, i int, s string, participate bool, buf []sim.Segment) (l string, k int) {
	t := tm.TExplo()
	explo := tm.Seq.ExploSegment()
	c := a.CurCard()
	k = 1
	lbuf := make([]byte, 0, i)
	active := participate && len(s) <= i

	for j := 1; j <= i; j++ {
		if active && j <= len(s) && s[j-1] == '0' {
			// Transmitting a 0: step out for one EXPLO in the first window.
			buf = append(buf[:0], sim.WaitSegment(t), explo, sim.WaitSegment(3*t))
			minCard := a.RunSegments(buf)
			lbuf = append(lbuf, '0')
			if c > 1 {
				k = minCard
			}
		} else {
			// Not transmitting this step: idle first, then EXPLO in the
			// second window and observe who was missing.
			buf = append(buf[:0], sim.WaitSegment(3*t), explo, sim.WaitSegment(t))
			cPrime := a.RunSegments(buf)
			if c == 1 || cPrime == c {
				lbuf = append(lbuf, '1')
			} else {
				lbuf = append(lbuf, '0')
				active = false
				k = c - cPrime
			}
		}
	}
	return string(lbuf), k
}

// CommunicateDuration returns the exact duration in rounds of a
// Communicate call with parameter i.
func CommunicateDuration(tm Timing, i int) int { return 5 * i * tm.TExplo() }
