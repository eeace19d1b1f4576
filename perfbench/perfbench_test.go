package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/sim"
)

// opBytes renders the first n ops of every workload for one seed.
func opBytes(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	var out []any
	sh := newShapes()
	for i := 0; i < n; i++ {
		specs, err := sweepOp(seed, sh, i)
		if err != nil {
			t.Fatal(err)
		}
		op := genGatherdOp(seed, i)
		out = append(out, specs, op.hot, op.miss, fleetSweep(seed, streamFleet, i, fleetSpecs))
	}
	hot, err := sweepMix.knownSpecs(newRNG(seed, streamHot), sh, hotSpecs)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, hot, rendezvousSpec(newRNG(seed, streamFill)), fleetSweep(seed, streamHistory, historySweeps, killedSpecs))
	buf, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestOpSequenceIsSeeded pins the benchmark's input contract: one seed
// gives a byte-identical op sequence, and another seed a different one.
func TestOpSequenceIsSeeded(t *testing.T) {
	a, b := opBytes(t, 7, 40), opBytes(t, 7, 40)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated two different op sequences")
	}
	if bytes.Equal(a, opBytes(t, 8, 40)) {
		t.Fatal("seeds 7 and 8 generated the same op sequence")
	}
}

// TestOverBudgetSpecFailsTheOp checks that a spec which does not declare
// within its round budget makes its op count as failed, through the same
// closed loop the measured phase uses.
func TestOverBudgetSpecFailsTheOp(t *testing.T) {
	specs, err := sweepOp(1, newShapes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := agg.Summarize(sim.NewRunner(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSummary(sum, len(specs)); err != nil {
		t.Fatalf("unmodified sweep fails its check: %v", err)
	}
	specs[3].MaxRounds = 20
	l := closedLoop(1, 0, 10*time.Millisecond, 1, func(_, _ int, _ bool) (time.Duration, error) {
		sum, err := agg.Summarize(sim.NewRunner(), specs)
		if err != nil {
			return 0, err
		}
		return 0, checkSummary(sum, len(specs))
	})
	if l.attempted == 0 || l.failed != l.attempted {
		t.Fatalf("%d of %d ops with an over-budget spec counted as failed", l.failed, l.attempted)
	}
}

// TestCorruptedSummariesFail checks that the output checks catch a
// summary that lost a run and one whose canonical bytes differ from the
// single-process fold, both as wrong outputs, and one whose runs did not
// all gather as a failed op.
func TestCorruptedSummariesFail(t *testing.T) {
	specs := fleetSweep(3, streamFleet, 0, fleetSpecs)
	sum, err := agg.Summarize(sim.NewRunner(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSummary(sum, len(specs)); err != nil {
		t.Fatalf("correct summary fails its check: %v", err)
	}
	want, err := localCanonical(specs)
	if err != nil {
		t.Fatal(err)
	}

	lost := *sum
	lost.Total.Runs--
	if err := checkSummary(&lost, len(specs)); !errors.Is(err, errWrong) {
		t.Errorf("a summary missing a run: check = %v, want a wrong output", err)
	}
	ungathered := *sum
	ungathered.Total.Gathered--
	if err := checkSummary(&ungathered, len(specs)); err == nil || errors.Is(err, errWrong) {
		t.Errorf("a summary with an ungathered run: check = %v, want a failed op", err)
	}
	// A summary that counts right but was corrupted in transit: the byte
	// check the fleet applies to sampled ops catches it.
	corrupt := bytes.Replace(want, []byte(`"moves"`), []byte(`"movez"`), 1)
	bad, err := checkSamples([]sample{{specs, want}, {specs, corrupt}})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Errorf("byte check flagged %d of 1 corrupted samples", bad)
	}
}

// TestRunResponseCheck checks the gatherd-mixed output check: a response
// must decode and show a gathered run.
func TestRunResponseCheck(t *testing.T) {
	sp := rendezvousSpec(newRNG(5, streamMiss))
	res, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(map[string]any{"key": "k", "cached": false, "result": res})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkRunResponse(good); err != nil {
		t.Fatalf("a gathered run fails the check: %v", err)
	}
	if _, err := checkRunResponse(good[:len(good)/2]); !errors.Is(err, errWrong) {
		t.Errorf("a truncated response: check = %v, want a wrong output", err)
	}
	if _, err := checkRunResponse([]byte(`{"key":"k","cached":true,"result":null}`)); err == nil {
		t.Error("a response without a result passed the check")
	}
}

// TestKnownDefectStaysBounded pins the budget of the spec the known defect
// was found on (star n=8, labels 42/37/19 at nodes 0/2/5, wakes 0/33/3):
// Theorem 3.1's bound, about 259k rounds rather than the engine's 50M
// default, so the probe that runs it costs a fraction of a second. While it
// still fails to gather, the sweep check must fail it.
func TestKnownDefectStaysBounded(t *testing.T) {
	specs, err := defectSpecs(newShapes())
	if err != nil {
		t.Fatal(err)
	}
	star := specs[:1]
	if budget := star[0].MaxRounds; budget < 250_000 || budget > 270_000 {
		t.Fatalf("Theorem 3.1 bound for the spec = %d, want about 259k", budget)
	}
	sum, err := agg.Summarize(sim.NewRunner(), star)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total.Gathered == 1 {
		return // gathers now: the defect is fixed
	}
	if checkSummary(sum, 1) == nil {
		t.Fatal("a non-gathering spec passed the sweep check")
	}
}

// TestSweepMixDrawsNoDelayedWakes pins what keeps the measured ops clear of
// the known defect: every wake the mix draws is round 0 or dormant, and
// both schedules occur.
func TestSweepMixDrawsNoDelayedWakes(t *testing.T) {
	specs, err := sweepMix.knownSpecs(newRNG(1, streamSweep), newShapes(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[bool]bool{}
	for _, sp := range specs {
		isDormant := false
		for _, a := range sp.Agents {
			switch a.Wake {
			case 0:
			case dormant:
				isDormant = true
			default:
				t.Fatalf("sweepMix drew a delayed wake: %+v", sp.Agents)
			}
		}
		seen[isDormant] = true
	}
	if !seen[false] || !seen[true] {
		t.Fatalf("sweepMix drew simultaneous schedules: %v, dormant ones: %v", seen[false], seen[true])
	}
}

// TestAnalyze checks self time and unattributed time on a hand-built
// trace: an op of 100ns with a service span [10, 60) holding a sim span
// [20, 40), a journal span [50, 70) hanging off the op, and a direct call
// after the op, which has no op time to take.
func TestAnalyze(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 0, Layer: "op", Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 0, Layer: "service", Name: "service.hit", Start: 10, End: 60},
		{ID: 3, Parent: 2, Op: 0, Layer: "sim", Name: "sim.run", Start: 20, End: 40},
		{ID: 4, Parent: 1, Op: 0, Layer: "journal", Name: "journal.put_chunk", Start: 50, End: 70},
		{ID: 5, Op: -1, Layer: "agg", Name: "agg.canonical", Start: 200, End: 230},
	}
	st := analyze(spans)
	for layer, want := range map[string]int64{"op": 100 - 60, "service": 50 - 20, "sim": 20, "journal": 20, "agg": 0} {
		if got := st.selfNs[layer]; got != want {
			t.Errorf("self time of %s = %d, want %d", layer, got, want)
		}
	}
	if st.ops != 1 || st.opNs != 100 || st.uncover != 40 {
		t.Errorf("ops=%d opNs=%d uncovered=%d, want 1, 100, 40", st.ops, st.opNs, st.uncover)
	}
}

// TestReservoirBoundsRecords checks that op latencies are all kept below
// the reservoir's capacity and sampled, at fixed size, above it.
func TestReservoirBoundsRecords(t *testing.T) {
	s := newReservoir(reservoirCap)
	for i := 0; i < reservoirCap; i++ {
		s.add(time.Duration(i))
	}
	if got := s.sample(); len(got) != reservoirCap || got[reservoirCap-1] != reservoirCap-1 {
		t.Fatalf("below capacity the reservoir kept %d values", len(got))
	}
	for i := 0; i < 3*reservoirCap; i++ {
		s.add(time.Duration(reservoirCap + i))
	}
	got := s.sample()
	if len(got) != reservoirCap {
		t.Fatalf("reservoir grew to %d values", len(got))
	}
	if m := median(got); m < time.Duration(reservoirCap) || m > time.Duration(3*reservoirCap) {
		t.Errorf("median of a uniform sample of 0..%d = %d", 4*reservoirCap, m)
	}
}
