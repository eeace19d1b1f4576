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
// needs the CurCard value observed when the condition was armed. The agent
// side evaluates armedConds with condHolds; the engine evaluates the
// wakeWindow compiled from them, which wakes exactly when condHolds reports
// some armed condition holding. That equivalence is what keeps engine-side
// evaluation identical to per-round stepping.
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

// never is the deadline of a wait that no round ends.
const never = maxInt

// wakeWindow is the wake test of a sleeping agent, compiled once when the
// engine accepts its instruction: the agent stays asleep while the round is
// before deadline and its CurCard lies in [lo, hi]. The deadline is the
// earliest LocalRoundReached round; each card condition narrows the window
// to the cards at which it does not hold. The end of the current wait or
// walk is kept apart, in the agent's runState.
type wakeWindow struct {
	lo, hi   int
	deadline int
}

// wakes reports whether the agent must be resumed in round r at CurCard
// card: some armed condition holds.
func (w wakeWindow) wakes(r, card int) bool {
	return r >= w.deadline || card < w.lo || card > w.hi
}

// compileWake folds the armed conditions into one wakeWindow; wokeAt
// translates local rounds into global ones. In every round r the result
// wakes exactly when some armed condition holds by condHolds — the test the
// agent side applies.
func compileWake(conds []armedCond, wokeAt int) wakeWindow {
	w := wakeWindow{lo: 0, hi: maxInt, deadline: never} // cards are never negative
	for _, ac := range conds {
		w.add(ac.c, ac.base, wokeAt)
	}
	return w
}

// add intersects the window with the rounds and cards at which c does not
// hold; Any holds when one of its parts does, so its parts all intersect.
func (w *wakeWindow) add(c Condition, base, wokeAt int) {
	switch c.kind {
	case condCardAtLeast:
		w.hi = min(w.hi, c.k-1)
	case condCardChanged:
		w.lo = max(w.lo, base)
		w.hi = min(w.hi, base)
	case condLocalRound:
		if c.k < w.deadline-wokeAt { // wokeAt+c.k without overflow
			w.deadline = wokeAt + c.k
		}
	case condAny:
		for _, s := range c.subs {
			w.add(s, base, wokeAt)
		}
	}
}
