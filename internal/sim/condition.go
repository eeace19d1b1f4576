package sim

// Condition is a declarative wake/interrupt predicate the engine can evaluate
// on its own, without resuming the agent's program. Conditions are what make
// bulk waits interruptible at zero per-round cost, and — because the engine
// can also reason about when a Condition could possibly fire — what allows
// the event-driven core to fast-forward the global clock over long all-idle
// stretches (see engine.go). They are the only interrupt form: RunUntil and
// WaitUntil take a Condition.
//
// A Condition is evaluated against the observation of each new round reached
// while a wait is in progress. The zero Condition is invalid; construct
// values only with CardAtLeast, CardChanged, LocalRoundReached and Any.
type Condition struct {
	kind condKind
	k    int
	subs []Condition
}

type condKind int

const (
	condInvalid condKind = iota
	condCardAtLeast
	condCardChanged
	condLocalRound
	condAny
)

// CardAtLeast fires when CurCard — the number of agents at the observer's
// node, including itself — is at least k. This is the declarative form of the
// paper's ubiquitous "as soon as CurCard > c" interruption conditions.
func CardAtLeast(k int) Condition { return Condition{kind: condCardAtLeast, k: k} }

// CardChanged fires when CurCard differs from its value at the moment the
// condition was armed (the entry of the RunUntil block or of the WaitUntil
// call). This is the primitive behind the paper's stabilization waits.
func CardChanged() Condition { return Condition{kind: condCardChanged} }

// LocalRoundReached fires when the agent's local round counter (rounds since
// it woke) reaches r. Unlike card conditions, the engine can predict its
// firing round exactly, so it never blocks clock fast-forwarding.
func LocalRoundReached(r int) Condition { return Condition{kind: condLocalRound, k: r} }

// Any fires when at least one of the sub-conditions fires.
func Any(subs ...Condition) Condition {
	return Condition{kind: condAny, subs: subs}
}

// valid reports whether the condition was built by a constructor.
func (c Condition) valid() bool {
	switch c.kind {
	case condCardAtLeast, condCardChanged, condLocalRound:
		return true
	case condAny:
		for _, s := range c.subs {
			if !s.valid() {
				return false
			}
		}
		return len(c.subs) > 0
	default:
		return false
	}
}

// armedCond is a Condition resolved against its arming context: CardChanged
// needs the CurCard value observed when the condition was armed. Both the
// engine and the agent-side interrupt check evaluate armedConds with the same
// pure function, which is what keeps engine-side evaluation exactly
// equivalent to per-round stepping.
type armedCond struct {
	c    Condition
	base int // CurCard at arming time, for CardChanged
}

// holds evaluates the condition against one observation.
func (ac armedCond) holds(curCard, localRound int) bool {
	return condHolds(ac.c, curCard, localRound, ac.base)
}

func condHolds(c Condition, curCard, localRound, base int) bool {
	switch c.kind {
	case condCardAtLeast:
		return curCard >= c.k
	case condCardChanged:
		return curCard != base
	case condLocalRound:
		return localRound >= c.k
	case condAny:
		for _, s := range c.subs {
			if condHolds(s, curCard, localRound, base) {
				return true
			}
		}
	}
	return false
}

// neverFires is the fireBound result for conditions that cannot fire while
// every agent stands still.
const neverFires = -1

// fireBound returns the earliest global round >= from at which the condition
// could fire, assuming CurCard stays frozen at curCard until then (which the
// engine guarantees while no agent moves or wakes), or neverFires if no such
// round exists. wokeAt translates local-round conditions to global rounds.
func (ac armedCond) fireBound(from, curCard, wokeAt int) int {
	return condFireBound(ac.c, from, curCard, wokeAt, ac.base)
}

func condFireBound(c Condition, from, curCard, wokeAt, base int) int {
	switch c.kind {
	case condCardAtLeast:
		if curCard >= c.k {
			return from
		}
	case condCardChanged:
		if curCard != base {
			return from
		}
	case condLocalRound:
		if at := wokeAt + c.k; at >= from {
			return at
		}
		return from
	case condAny:
		best := neverFires
		for _, s := range c.subs {
			if fb := condFireBound(s, from, curCard, wokeAt, base); fb != neverFires && (best == neverFires || fb < best) {
				best = fb
			}
		}
		return best
	}
	return neverFires
}
