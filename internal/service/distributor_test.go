package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"nochatter/internal/agg"
	"nochatter/internal/spec"
)

func sweepSpecs(t *testing.T, n int) []spec.ScenarioSpec {
	t.Helper()
	specs, err := spec.SweepDef{Families: []string{"ring"}, Sizes: []int{6, 8, 10, 12}, TeamSizes: []int{2}}.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < n {
		t.Fatalf("sweep too small: %d < %d", len(specs), n)
	}
	return specs[:n]
}

// TestDistributorServesSummaryOnlyJobs proves the SetDistributor hook:
// summary-only jobs take the distributed path (specs handed over verbatim,
// summary stored and served through the normal lifecycle), while raw-row
// jobs keep running locally.
func TestDistributorServesSummaryOnlyJobs(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	var gotSpecs int
	svc.SetDistributor(func(ctx context.Context, specs []spec.ScenarioSpec) (*agg.Summary, error) {
		gotSpecs = len(specs)
		s := agg.NewSummary()
		for range specs {
			s.Observe(agg.Key{Family: "fake", N: 1, K: 1, Algo: "fake"}, nil, nil, time.Millisecond)
		}
		return s, nil
	})

	specs := sweepSpecs(t, 4)
	st, err := svc.submitSpecs(specs, true)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := svc.queue.get(st.ID)
	if !jb.waitTerminal(context.Background()) {
		t.Fatal("job never terminalized")
	}
	resp, _, err := svc.JobSummary(st.ID)
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	if gotSpecs != len(specs) {
		t.Errorf("distributor saw %d specs, want %d", gotSpecs, len(specs))
	}
	if resp.Summary.Total.Runs != int64(len(specs)) {
		t.Errorf("served summary has %d runs, want %d (the distributor's fold)", resp.Summary.Total.Runs, len(specs))
	}
	if st, _ := svc.Job(st.ID); st.Completed != len(specs) {
		t.Errorf("completed = %d, want %d", st.Completed, len(specs))
	}

	// Raw-row sweeps bypass the distributor entirely.
	st2, err := svc.submitSpecs(specs[:1], false)
	if err != nil {
		t.Fatal(err)
	}
	jb2, _ := svc.queue.get(st2.ID)
	jb2.waitTerminal(context.Background())
	if got, _ := svc.Job(st2.ID); got.State != JobDone {
		t.Fatalf("raw job state %s, want done", got.State)
	}
	if res, ok := jb2.waitResult(context.Background(), 0); !ok || res.Result == nil {
		t.Error("raw job produced no local result; did it take the distributed path?")
	}
}

// TestDistributedJobCancelPropagates proves canceling a distributed job
// cancels the distributor's context and fails the job as canceled.
func TestDistributedJobCancelPropagates(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	entered := make(chan struct{})
	svc.SetDistributor(func(ctx context.Context, specs []spec.ScenarioSpec) (*agg.Summary, error) {
		close(entered)
		<-ctx.Done() // a hung fleet: only cancellation can unblock this
		return nil, ctx.Err()
	})

	st, err := svc.submitSpecs(sweepSpecs(t, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("distributor never entered")
	}
	if _, ok := svc.CancelJob(st.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	jb, _ := svc.queue.get(st.ID)
	done := make(chan struct{})
	go func() { jb.waitTerminal(context.Background()); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the distributor")
	}
	if got, _ := svc.Job(st.ID); got.State != JobFailed || got.Error != "canceled" {
		t.Fatalf("state = %+v, want failed/canceled", got)
	}
	if _, _, err := svc.JobSummary(st.ID); err == nil || !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("summary of canceled distributed job: %v, want refusal", err)
	}
}
