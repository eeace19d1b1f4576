package spec

import (
	"fmt"
	"strings"
	"testing"
)

// buildNoPanic builds gs through the registry, turning a panic into a test
// failure so one bad case cannot hide the others.
func buildNoPanic(t *testing.T, gs GraphSpec) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%+v panicked: %v", gs, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	_, err = BuildGraph(gs)
	return err
}

// TestGraphFamiliesRejectNegativeTail pins the tail parameter of barbell
// and lollipop: 0 still means 1, and a negative tail is an error, not a
// panic in the graph generator.
func TestGraphFamiliesRejectNegativeTail(t *testing.T) {
	for _, fam := range []string{"barbell", "lollipop"} {
		for _, tail := range []int{-1, -2, -1 << 40} {
			gs := GraphSpec{Family: fam, N: 4, Tail: tail}
			if err := buildNoPanic(t, gs); err == nil || !strings.Contains(err.Error(), "tail must be >= 0") {
				t.Errorf("%+v: err=%v, want a negative-tail error", gs, err)
			}
		}
		if err := buildNoPanic(t, GraphSpec{Family: fam, N: 4}); err != nil {
			t.Errorf("%s with the default tail: %v", fam, err)
		}
	}
}

// TestGraphFamiliesRejectOversize checks every built-in family against the
// node and edge bounds before anything is allocated: each case below
// would otherwise ask for hundreds of megabytes or more (or, at N = 2^40,
// never return).
func TestGraphFamiliesRejectOversize(t *testing.T) {
	const huge = 1 << 40
	cases := []GraphSpec{
		{Family: "ring", N: maxNodes + 1}, {Family: "ring", N: huge},
		{Family: "path", N: maxNodes + 1}, {Family: "path", N: huge},
		{Family: "complete", N: 725}, {Family: "complete", N: 10000}, {Family: "complete", N: huge},
		{Family: "star", N: maxNodes + 1}, {Family: "star", N: huge},
		{Family: "grid", N: maxNodes + 1}, {Family: "grid", N: huge}, {Family: "grid", N: huge, Rows: 1 << 20},
		{Family: "torus", N: maxNodes + 1}, {Family: "torus", N: huge},
		{Family: "hypercube", N: 12}, {Family: "hypercube", N: 16}, {Family: "hypercube", N: huge},
		{Family: "tree", N: maxNodes + 1}, {Family: "tree", N: huge},
		{Family: "gnp", N: 725}, {Family: "gnp", N: 725, P: 0.01}, {Family: "gnp", N: 1000, P: 1}, {Family: "gnp", N: huge},
		{Family: "barbell", N: 513}, {Family: "barbell", N: 512, Tail: 513}, {Family: "barbell", N: huge},
		{Family: "barbell", N: 4, Tail: maxNodes + 1}, {Family: "barbell", N: 4, Tail: huge},
		{Family: "lollipop", N: 725}, {Family: "lollipop", N: huge},
		{Family: "lollipop", N: 3, Tail: maxNodes - 2}, {Family: "lollipop", N: 3, Tail: huge},
		{Family: "two", N: huge},
	}
	for _, gs := range cases {
		if err := buildNoPanic(t, gs); err == nil {
			t.Errorf("%+v built; want a size error", gs)
		}
	}
}

// TestGraphFamiliesAcceptBounds keeps the largest graphs within the bounds
// buildable (only cheap ones: the dense cases near the edge bound take
// about 100 MB each), the CI kill-resume barbell 128 among them.
func TestGraphFamiliesAcceptBounds(t *testing.T) {
	for _, gs := range []GraphSpec{
		{Family: "ring", N: maxNodes},
		{Family: "path", N: maxNodes},
		{Family: "star", N: maxNodes},
		{Family: "grid", N: maxNodes},
		{Family: "torus", N: maxNodes},
		{Family: "hypercube", N: 11},
		{Family: "tree", N: maxNodes},
		{Family: "barbell", N: 128},
		{Family: "lollipop", N: 3, Tail: maxNodes - 3},
	} {
		g, err := BuildGraph(gs)
		if err != nil {
			t.Errorf("%+v: %v", gs, err)
			continue
		}
		if g.N() > maxNodes {
			t.Errorf("%+v built %d nodes, above the bound", gs, g.N())
		}
	}
}
