// Package unknown implements GatherUnknownUpperBound (Section 4 of the
// paper): gathering with no a-priori knowledge whatsoever about the network,
// by testing an enumeration Ω of all initial configurations, one hypothesis
// per phase, with movement "dances" (StarCheck, EnsureCleanExploration) and
// token-based exploration (EST+) replacing all communication.
//
// # Duration profiles
//
// The paper's duration formulas (ball radius 4h·m_h⁵, slowdown
// 7·m_h^(2·m_h⁵), sweep length n_h⁵+1, T(EST(n)) = n⁵) are chosen for proof
// uniformity over arbitrary unknown graphs and are astronomically large even
// for two nodes. This package runs the same algorithms under a scaled
// profile (Params) that preserves every ordering invariant the correctness
// proofs use, specialized to runs whose true graph has diameter at most
// Params.RadiusCap (validated up front):
//
//	I1 ball coverage   — the BallTraversal sweep radius R(h) is at least the
//	                     true diameter, so the sweep visits every node any
//	                     potential interferer could start from (the paper's
//	                     kernel/ball property) and wakes every dormant agent.
//	I2 slowdown        — the wait W(h) inserted before every non-sensitive
//	                     move strictly exceeds twice the longest sensitive
//	                     window (StarCheck + EnsureCleanExploration +
//	                     GraphSizeCheck) of every hypothesis x <= h, so a
//	                     slow agent makes at most one move inside any
//	                     sensitive window (Lemmas 4.7/4.9).
//	I3 preprocessing   — S_h = T(BallTraversal(h)) + Σ_{i<h} T_i upper-bounds
//	                     the time for a freshly woken agent to reach
//	                     hypothesis h (Lemmas 4.5/4.6).
//	I4 phase duration  — T_h upper-bounds every possible execution of
//	                     Hypothesis(h) including the slowed return walk, so
//	                     the trailing wait makes phases last exactly T_h.
//	I5 sweep coverage  — the EnsureCleanExploration sweep length is at least
//	                     the true diameter, so any stray agent (which can
//	                     move at most one edge during a sensitive window, by
//	                     I2) is detected before GraphSizeCheck runs
//	                     (Lemma 4.9).
//
// PaperDims reproduces the paper's exact formulas with math/big for
// documentation and tests; it is not runnable, which is itself faithful:
// Theorem 4.1 claims feasibility with exponential complexity, reproduced as
// experiment E8.
package unknown

import (
	"fmt"
	"math/big"

	"nochatter/internal/config"
	"nochatter/internal/est"
	"nochatter/internal/graph"
)

// Params selects the scaled duration profile of a run.
type Params struct {
	// RadiusCap is the ball-sweep and clean-sweep radius R(h) = L(h). The
	// true graph's diameter must not exceed it (ValidateFor checks).
	RadiusCap int
	// MaxN restricts the enumeration to graphs of at most MaxN nodes; the
	// true graph must not be larger (<= config.MaxSupportedN).
	MaxN int
}

// DefaultParams is suitable for every run with a true graph of at most 3
// nodes (diameter at most 2).
func DefaultParams() Params { return Params{RadiusCap: 2, MaxN: 3} }

// ValidateFor checks that the profile's invariants apply to runs on g.
func (p Params) ValidateFor(g *graph.Graph) error {
	if g.N() > p.MaxN {
		return fmt.Errorf("unknown: graph has %d nodes, profile supports at most %d", g.N(), p.MaxN)
	}
	if d := g.Diameter(); d > p.RadiusCap {
		return fmt.Errorf("unknown: graph diameter %d exceeds radius cap %d", d, p.RadiusCap)
	}
	return nil
}

// Dims carries every duration constant of one hypothesis h under the scaled
// profile. All agents compute identical Dims from the shared enumeration.
type Dims struct {
	H int // hypothesis index (1-based)
	N int // n_h: graph size of φ_h
	K int // k_h: number of labeled nodes of φ_h
	M int // m_h = max_{i<=h} n_i

	Radius int // R(h): ball-traversal and clean-sweep path length
	Slow   int // W(h): wait inserted before every slow move
	TBall  int // worst-case duration of BallTraversal(h)
	S      int // S_h: preprocessing wait
	T      int // T_h: exact duration of a failed Hypothesis(h)
	EstDur int // T(EST(n_h))

	SensUpper  int // upper bound on StarCheck+ECE+GraphSizeCheck duration
	MovesUpper int // upper bound on first-part move count
}

// Schedule lazily computes Dims for h = 1, 2, ... and caches the hypothesis
// configurations. Each agent owns one Schedule; determinism of the
// enumeration makes all agents agree. A Schedule is not safe for concurrent
// use: even read-looking calls such as Config and Dim fill its caches.
type Schedule struct {
	params  Params
	enum    *config.Enumerator
	dims    []Dims
	sumT    int
	maxN    int
	sensCum int
}

// NewSchedule returns a fresh schedule for the given profile.
func NewSchedule(p Params) *Schedule {
	return &Schedule{params: p, enum: config.NewEnumerator(p.MaxN)}
}

// Config returns φ_h.
func (s *Schedule) Config(h int) *config.Configuration { return s.enum.At(h) }

// Dim returns the duration constants of hypothesis h.
func (s *Schedule) Dim(h int) Dims {
	for len(s.dims) < h {
		s.dims = append(s.dims, s.compute(len(s.dims)+1))
	}
	return s.dims[h-1]
}

func (s *Schedule) compute(h int) Dims {
	cfg := s.enum.At(h)
	n, k := cfg.N(), cfg.K()
	if n > s.maxN {
		s.maxN = n
	}
	m := s.maxN
	r := s.params.RadiusCap

	alpha := n - 1
	if alpha < 1 {
		alpha = 1
	}
	paths := pow(alpha, r)

	estDur := est.Duration(n)
	scDur := 4 * m * k          // StarCheck: 4·d·k with d <= m-1 < m
	eceDur := 2 * paths * 2 * r // two sweeps of all paths, 2R moves each
	gscDur := 2 * k * estDur    // GraphSizeCheck: k turns of EST+
	sens := scDur + eceDur + gscDur
	if sens > s.sensCum {
		s.sensCum = sens
	}
	slow := 2*s.sensCum + 2

	tBall := paths * 2 * r * (slow + 1)
	sh := tBall + s.sumT

	// MoveToCentralNode: walk + stability wait bounded by 2(S_h+n_h)+4.
	mtcnMax := (n - 1) + 2*(sh+n) + 6
	moves := paths*2*r + // ball traversal
		(n - 1) + // move to central node
		4*m*k + // star check
		2*paths*2*r + // clean sweep
		2*est.DurationPlus(n) + // EST+ walk (generous)
		8
	th := sh + tBall + mtcnMax + sens + moves*(slow+1) + 16

	s.sumT += th
	return Dims{
		H: h, N: n, K: k, M: m,
		Radius: r, Slow: slow, TBall: tBall, S: sh, T: th, EstDur: estDur,
		SensUpper: sens, MovesUpper: moves,
	}
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// CheckInvariants verifies invariants I1..I5 (package comment) for the
// first maxH hypotheses of the schedule against a concrete run graph.
// Experiments call this before trusting a profile on a new topology.
func (s *Schedule) CheckInvariants(g *graph.Graph, maxH int) error {
	if err := s.params.ValidateFor(g); err != nil {
		return err
	}
	diam := g.Diameter()
	sumT := 0
	for h := 1; h <= maxH; h++ {
		d := s.Dim(h)
		if d.Radius < diam {
			return fmt.Errorf("unknown: I1/I5 violated at h=%d: radius %d < diameter %d", h, d.Radius, diam)
		}
		// I2: the slowdown must strictly exceed twice every sensitive window
		// seen so far (sensCum is a running max by construction; verify
		// against each earlier hypothesis independently).
		for x := 1; x <= h; x++ {
			if d.Slow <= 2*s.Dim(x).SensUpper {
				return fmt.Errorf("unknown: I2 violated at h=%d vs x=%d: slow %d <= 2*%d",
					h, x, d.Slow, s.Dim(x).SensUpper)
			}
		}
		if d.S != d.TBall+sumT {
			return fmt.Errorf("unknown: I3 violated at h=%d: S=%d != TBall %d + ΣT %d",
				h, d.S, d.TBall, sumT)
		}
		// I4: T_h covers the first part, the slowed return walk and slack.
		mtcnMax := (d.N - 1) + 2*(d.S+d.N) + 6
		if d.T < d.S+d.TBall+mtcnMax+d.SensUpper+d.MovesUpper*(d.Slow+1) {
			return fmt.Errorf("unknown: I4 violated at h=%d", h)
		}
		sumT += d.T
	}
	return nil
}

// PaperDims reports the paper's exact (unscaled) constants for hypothesis h
// with parameters n_h, k_h, m_h, as arbitrary-precision integers:
// ball radius 4h·m_h⁵, slowdown 7·m_h^(2·m_h⁵), ball-traversal bound
// 64^(h·m_h^(7h·m_h⁵)) — implemented as the tighter explicit bound
// 8h·m_h⁵·n_h^(4h·m_h⁵)·(1+slowdown) from the proof of Lemma 4.3 — and
// sweep length n_h⁵+1. These document what the scaled profile stands in for.
type PaperDimsResult struct {
	BallRadius *big.Int
	Slowdown   *big.Int
	TBall      *big.Int
	SweepLen   *big.Int
	EstDur     *big.Int
}

// PaperDims computes the paper's duration constants for hypothesis h.
func PaperDims(h, nh, mh int) PaperDimsResult {
	bh := big.NewInt(int64(h))
	bn := big.NewInt(int64(nh))
	bm := big.NewInt(int64(mh))

	m5 := new(big.Int).Exp(bm, big.NewInt(5), nil)
	radius := new(big.Int).Mul(big.NewInt(4), new(big.Int).Mul(bh, m5)) // 4h·m⁵

	twoM5 := new(big.Int).Mul(big.NewInt(2), m5)
	slowdown := new(big.Int).Mul(big.NewInt(7), new(big.Int).Exp(bm, twoM5, nil)) // 7·m^(2m⁵)

	// 8h·m⁵ · n^(4h·m⁵) · (1 + slowdown), cf. proof of Lemma 4.3.
	nPow := new(big.Int).Exp(bn, radius, nil)
	tball := new(big.Int).Mul(big.NewInt(8), new(big.Int).Mul(bh, m5))
	tball.Mul(tball, nPow)
	tball.Mul(tball, new(big.Int).Add(big.NewInt(1), slowdown))

	sweep := new(big.Int).Exp(bn, big.NewInt(5), nil)
	sweep.Add(sweep, big.NewInt(1)) // n⁵+1

	estDur := new(big.Int).Exp(bn, big.NewInt(5), nil) // T(EST(n)) = n⁵

	return PaperDimsResult{
		BallRadius: radius,
		Slowdown:   slowdown,
		TBall:      tball,
		SweepLen:   sweep,
		EstDur:     estDur,
	}
}
