package sim

// interruptSignal unwinds the program to the RunUntil frame at index id of
// API.frames.
type interruptSignal struct{ id int }

// RunUntil executes block, aborting it as soon as cond holds at a round
// boundary inside the block (the paper's "execute the following begin-end
// block and interrupt it before its completion as soon as ..."). The
// condition is evaluated against the observation of each new round reached
// while the block runs, and also on entry; CardChanged is relative to the
// CurCard observed at entry. It returns true if the block was interrupted,
// false if it ran to completion.
//
// Because cond is declarative, the engine evaluates it on the engine side:
// bulk waits and walks inside the block stay single instructions and the
// event-driven core keeps fast-forwarding the clock (see engine.go).
//
// Frames nest: an inner frame is checked before an outer one, and an outer
// interruption correctly unwinds through inner frames.
func (a *API) RunUntil(cond Condition, block func(*API)) (interrupted bool) {
	if !cond.valid() {
		panic("sim: invalid Condition (use the condition constructors)")
	}
	ac := armedCond{c: cond, base: a.obs.curCard}
	if ac.holds(a.obs.curCard, a.obs.localRound) {
		return true
	}
	id := len(a.frames)
	a.frames = append(a.frames, ac)
	defer func() {
		// Pop our frame regardless of how the block exits.
		a.frames = a.frames[:id]
		if r := recover(); r != nil {
			sig, ok := r.(interruptSignal)
			if !ok || sig.id != id {
				panic(r) // not ours: propagate (outer frame or real panic)
			}
			interrupted = true
		}
	}()
	block(a)
	return false
}

// checkInterrupts fires the innermost satisfied frame, if any.
func (a *API) checkInterrupts() {
	for i := len(a.frames) - 1; i >= 0; i-- {
		if a.frames[i].holds(a.obs.curCard, a.obs.localRound) {
			panic(interruptSignal{id: i})
		}
	}
}
