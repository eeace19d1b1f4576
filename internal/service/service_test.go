package service

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

// TestDeterministicFailuresAreCached proves a spec that fails does not
// re-execute on resubmission: failures are deterministic (stable
// registries), so the memoized error is served from cache.
func TestDeterministicFailuresAreCached(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	var executions atomic.Int64
	real := svc.execute
	svc.execute = func(sp spec.ScenarioSpec) (*sim.RunResult, error) {
		executions.Add(1)
		return real(sp)
	}
	bad := spec.ScenarioSpec{
		Graph:  spec.GraphSpec{Family: "ring", N: 2}, // rings need n >= 3
		Agents: []spec.AgentSpec{{Label: 1, Algorithm: spec.Known()}},
	}
	_, _, cached, err := svc.RunSpec(bad)
	if err == nil || cached {
		t.Fatalf("first submission: err=%v cached=%v, want fresh failure", err, cached)
	}
	_, _, cached, err2 := svc.RunSpec(bad)
	if err2 == nil || !cached {
		t.Fatalf("resubmission: err=%v cached=%v, want cached failure", err2, cached)
	}
	if err.Error() != err2.Error() {
		t.Errorf("cached failure diverged: %q vs %q", err, err2)
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("failing spec executed %d times, want 1", got)
	}
}

// TestSubmitSweepEnforcesLimits proves over-limit sweeps are rejected
// without materializing their product, and absurd team sizes are rejected
// before any allocation.
func TestSubmitSweepEnforcesLimits(t *testing.T) {
	svc := New(Config{MaxSweepSpecs: 10})
	defer svc.Close()
	_, err := svc.SubmitSweep(spec.SweepDef{
		Families:  []string{"ring"},
		Sizes:     []int{4, 5, 6, 7, 8, 9},
		TeamSizes: []int{1, 2},
	})
	if err == nil || !strings.Contains(err.Error(), "more than 10") {
		t.Errorf("12-spec sweep under a 10-spec limit: err=%v", err)
	}
	_, err = svc.SubmitSweep(spec.SweepDef{
		Families:  []string{"ring"},
		Sizes:     []int{8},
		TeamSizes: []int{2_000_000_000},
	})
	if err == nil || !strings.Contains(err.Error(), "team size") {
		t.Errorf("2e9-agent team: err=%v", err)
	}
	_, err = svc.SubmitSweep(spec.SweepDef{
		Families:  []string{"ring"},
		Sizes:     []int{8},
		TeamSizes: []int{-1},
	})
	if err == nil || !strings.Contains(err.Error(), "not positive") {
		t.Errorf("negative team size: err=%v", err)
	}
	// Under the limit still works.
	st, err := svc.SubmitSweep(spec.SweepDef{
		Families:  []string{"ring"},
		Sizes:     []int{6, 8},
		TeamSizes: []int{2},
	})
	if err != nil || st.Specs != 2 {
		t.Errorf("legitimate sweep: status=%+v err=%v", st, err)
	}
}

// TestTerminalJobsEvicted proves the job store is bounded: once past the
// retention limit, the oldest finished jobs disappear (404 territory)
// while newer ones survive.
func TestTerminalJobsEvicted(t *testing.T) {
	svc := New(Config{RetainedJobs: 3})
	defer svc.Close()
	sp := spec.ScenarioSpec{
		Graph: spec.GraphSpec{Family: "ring", N: 6},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 3, Algorithm: spec.Known()},
		},
	}
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := svc.SubmitSpecs([]spec.ScenarioSpec{sp})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
		// Wait for the job to terminalize so later submissions can evict it.
		jb, _ := svc.queue.get(st.ID)
		jb.waitResult(t.Context(), 0)
		jb.mu.Lock()
		for !jb.terminal() {
			jb.cond.Wait()
		}
		jb.mu.Unlock()
	}
	if _, ok := svc.Job(ids[0]); ok {
		t.Errorf("oldest job %s survived past the retention bound", ids[0])
	}
	if _, ok := svc.Job(ids[len(ids)-1]); !ok {
		t.Errorf("newest job %s was evicted", ids[len(ids)-1])
	}
}

// TestNumberSpellingsShareOutcome submits one randomized scenario with its
// seed and horizon spelled as plain integers and as integral decimals or
// exponents — spellings the canonical number rule gives one key — to one
// service, in both orders. Because the cache stores outcomes under the
// key, every spelling must get the outcome a fresh service gives the
// plain one; an accessor that refused "5.0" would poison the valid spec's
// cache entry with its error.
func TestNumberSpellingsShareOutcome(t *testing.T) {
	parse := func(seed, horizon string) spec.ScenarioSpec {
		t.Helper()
		algo := `{"name":"randomized","params":{"seed":` + seed + `,"horizon":` + horizon + `}}`
		sp, err := spec.Parse([]byte(`{"graph":{"family":"ring","n":6},"agents":[
			{"label":1,"start":0,"algorithm":` + algo + `},
			{"label":2,"start":3,"algorithm":` + algo + `}]}`))
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	fresh := New(Config{})
	defer fresh.Close()
	wantKey, want, _, err := fresh.RunSpec(parse("5", "500"))
	if err != nil {
		t.Fatalf("plain spelling: %v", err)
	}
	for _, odd := range [][2]string{{"5.0", "500"}, {"5e0", "5e2"}, {"5", "500.00"}, {"50e-1", "5.0e2"}} {
		for _, first := range []bool{true, false} {
			spellings := [][2]string{odd, {"5", "500"}}
			if !first {
				spellings[0], spellings[1] = spellings[1], spellings[0]
			}
			svc := New(Config{})
			defer svc.Close()
			for _, sp := range spellings {
				key, res, _, err := svc.RunSpec(parse(sp[0], sp[1]))
				if err != nil {
					t.Fatalf("seed %s horizon %s after %v: %v", sp[0], sp[1], spellings, err)
				}
				if got := resultJSON(t, res); key != wantKey || got != resultJSON(t, want) {
					t.Errorf("seed %s horizon %s after %v: key %s, result %s; a fresh service: key %s, result %s",
						sp[0], sp[1], spellings, key, got, wantKey, resultJSON(t, want))
				}
			}
		}
	}
}

func resultJSON(t *testing.T, r *sim.RunResult) string {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
