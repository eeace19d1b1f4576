package sim

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"nochatter/internal/graph"
)

// batchScenarios builds k independent two-agent scenarios with varying
// meeting rounds.
func batchScenarios(k int) []Scenario {
	out := make([]Scenario, k)
	for i := range out {
		d := i + 1
		out[i] = Scenario{
			Graph: graph.Ring(6),
			Agents: []AgentSpec{
				{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
					a.WaitRounds(10 * d)
					return Report{Leader: d}
				}},
				{Label: 2, Start: 3, WakeRound: 0, Program: func(a *API) Report {
					a.WaitRounds(10 * d)
					return Report{Leader: d}
				}},
			},
		}
	}
	return out
}

func TestRunBatchOrderAndParallelismInvariance(t *testing.T) {
	scs := batchScenarios(9)
	seq := RunBatch(scs, WithParallelism(1))
	par := RunBatch(scs, WithParallelism(4))
	if len(seq) != len(par) || len(seq) != 9 {
		t.Fatalf("result counts: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("case %d errored: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Index != i || par[i].Index != i {
			t.Errorf("case %d: indices %d / %d", i, seq[i].Index, par[i].Index)
		}
		if want := 10 * (i + 1); seq[i].Result.Rounds != want {
			t.Errorf("case %d: rounds %d, want %d", i, seq[i].Result.Rounds, want)
		}
		if !reflect.DeepEqual(seq[i].Result.Agents, par[i].Result.Agents) {
			t.Errorf("case %d: sequential and parallel results diverge", i)
		}
	}
}

func TestRunBatchErrorIsolation(t *testing.T) {
	scs := batchScenarios(3)
	scs[1].Agents = nil // invalid: must fail alone
	out := RunBatch(scs, WithParallelism(2))
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("healthy scenarios errored: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Error("invalid scenario did not error")
	}
}

func TestRunnerDefaults(t *testing.T) {
	var hooked atomic.Int64
	r := NewRunner(
		WithMaxRounds(25),
		WithOnRound(func(RoundView) { hooked.Add(1) }),
	)
	// The default MaxRounds must abort a non-halting scenario...
	_, err := r.Run(Scenario{
		Graph: graph.TwoNodes(),
		Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
			for {
				a.Wait()
			}
		}}},
	})
	if err == nil {
		t.Fatal("runner MaxRounds default not applied")
	}
	if hooked.Load() == 0 {
		t.Error("runner OnRound default not applied")
	}
	// ...but a scenario's own MaxRounds wins.
	hooked.Store(0)
	res, err := r.Run(Scenario{
		Graph:     graph.TwoNodes(),
		MaxRounds: 1000,
		Agents: []AgentSpec{{Label: 1, Start: 0, WakeRound: 0, Program: func(a *API) Report {
			a.WaitRounds(100)
			return Report{}
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 100 {
		t.Errorf("rounds %d, want 100", res.Rounds)
	}
}

func TestRunBatchEmpty(t *testing.T) {
	if out := RunBatch(nil); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

// TestRunBatchHasNoWindow pins the pool's no-window property: at
// parallelism 2, scenario 0 blocks until scenarios 1-5 have all finished,
// which they can only do if the pool hands them to the other worker while
// scenario 0 is still running. A pool that bounded how far it runs ahead of
// its slowest scenario would stall here until the timeout.
func TestRunBatchHasNoWindow(t *testing.T) {
	const rest = 5
	var left atomic.Int32
	left.Store(rest)
	restDone := make(chan struct{})
	var stalled atomic.Bool
	scs := make([]Scenario, 1+rest)
	for i := range scs {
		prog := func(a *API) Report {
			a.WaitRounds(1)
			if left.Add(-1) == 0 {
				close(restDone)
			}
			return Report{}
		}
		if i == 0 {
			prog = func(a *API) Report {
				select {
				case <-restDone:
				case <-time.After(10 * time.Second):
					stalled.Store(true)
				}
				return Report{}
			}
		}
		scs[i] = Scenario{Graph: graph.TwoNodes(), Agents: []AgentSpec{{Label: 1, Start: 0, Program: prog}}}
	}
	for i, br := range RunBatch(scs, WithParallelism(2)) {
		if br.Err != nil {
			t.Fatalf("scenario %d: %v", i, br.Err)
		}
	}
	if stalled.Load() {
		t.Fatal("scenario 0 waited 10 s for scenarios 1-5: the pool did not run them beside it")
	}
}

// TestFoldStopsHandingOut checks Fold's stop: once more returns false no
// further index goes out, so exactly the indices handed out before it run,
// and every worker's accumulator is merged into the result.
func TestFoldStopsHandingOut(t *testing.T) {
	for _, p := range []int{1, 3} {
		calls := 0 // more runs on this goroutine only
		var ran [9]atomic.Bool
		total := Fold(p, len(ran), func() bool {
			calls++
			return calls <= 4
		}, func() *int { return new(int) }, func(acc *int, i int) {
			ran[i].Store(true)
			*acc++
		}, func(dst, src *int) { *dst += *src })
		if *total != 4 {
			t.Errorf("parallelism %d: %d bodies folded after more stopped at 4", p, *total)
		}
		for i := range ran {
			if ran[i].Load() != (i < 4) {
				t.Errorf("parallelism %d: index %d ran=%v", p, i, ran[i].Load())
			}
		}
	}
}
