package spec

import (
	"fmt"
	"sort"
	"sync"

	"nochatter/internal/graph"
)

// GraphBuilderFunc builds a graph from its family's parameters. Builders
// must be deterministic and must return errors (not panic) on out-of-range
// parameters: specs arrive from files and flags, so bad values are user
// input, not bugs.
type GraphBuilderFunc func(GraphSpec) (*graph.Graph, error)

var (
	graphMu  sync.RWMutex
	graphReg = map[string]GraphBuilderFunc{}
)

// RegisterGraphFamily registers (or replaces) a graph family under name,
// making it compilable from GraphSpec{Family: name} and usable in sweeps.
func RegisterGraphFamily(name string, b GraphBuilderFunc) {
	if name == "" || b == nil {
		panic("spec: RegisterGraphFamily needs a name and a builder")
	}
	graphMu.Lock()
	graphReg[name] = b
	graphMu.Unlock()
	// A replaced builder can change what a GraphSpec of this family
	// denotes; drop memoized sequences built under the old builder.
	invalidateSequences(name)
}

// GraphFamilies returns the registered family names, sorted.
func GraphFamilies() []string {
	graphMu.RLock()
	defer graphMu.RUnlock()
	out := make([]string, 0, len(graphReg))
	for name := range graphReg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuildGraph compiles a GraphSpec through the family registry.
func BuildGraph(gs GraphSpec) (*graph.Graph, error) {
	graphMu.RLock()
	b, ok := graphReg[gs.Family]
	graphMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("spec: unknown graph family %q (have %v)", gs.Family, GraphFamilies())
	}
	g, err := b(gs)
	if err != nil {
		return nil, fmt.Errorf("spec: graph family %q: %w", gs.Family, err)
	}
	return g, nil
}

// maxNodes and maxEdges bound every built-in family. Specs arrive from
// files and HTTP requests, and a graph's adjacency and the exploration
// sequence compiled over it grow with the square of its size (about 25–30
// bytes per squared node), so a 100-byte request for complete n=10,000
// would otherwise ask for some 20 GB. A family checks its parameters
// against these bounds before it allocates anything.
const (
	maxNodes = 2048
	maxEdges = 1 << 18
)

// needN guards the size parameter of a family: at least min, and at most
// maxNodes, which also keeps the edge counts the callers compute from n
// from overflowing.
func needN(gs GraphSpec, min int, what string) error {
	if gs.N < min {
		return fmt.Errorf("%s needs n >= %d, got %d", what, min, gs.N)
	}
	if gs.N > maxNodes {
		return fmt.Errorf("%s needs n <= %d, got %d", what, maxNodes, gs.N)
	}
	return nil
}

// needSize rejects a graph of the given node and undirected edge counts
// above maxNodes or maxEdges.
func needSize(what string, nodes, edges int) error {
	if nodes > maxNodes {
		return fmt.Errorf("%s would have %d nodes, above the limit of %d", what, nodes, maxNodes)
	}
	if edges > maxEdges {
		return fmt.Errorf("%s would have %d edges, above the limit of %d", what, edges, maxEdges)
	}
	return nil
}

// rectShape resolves an r×c factorization of n nodes with both sides at
// least minSide. rows == 0 picks the most balanced shape (largest divisor of
// n not exceeding √n); otherwise rows is validated as given.
func rectShape(n, rows, minSide int) (r, c int, err error) {
	if n < minSide*minSide {
		return 0, 0, fmt.Errorf("%d nodes cannot form a %d×%d or larger shape", n, minSide, minSide)
	}
	if rows == 0 {
		for d := isqrt(n); d >= minSide; d-- {
			if n%d == 0 && n/d >= minSide {
				return d, n / d, nil
			}
		}
		return 0, 0, fmt.Errorf("no valid rows×cols factorization of %d nodes with sides >= %d (pick n accordingly)", n, minSide)
	}
	if rows < minSide {
		return 0, 0, fmt.Errorf("rows %d below the minimum of %d", rows, minSide)
	}
	if n%rows != 0 {
		return 0, 0, fmt.Errorf("rows %d does not divide %d nodes", rows, n)
	}
	if c := n / rows; c >= minSide {
		return rows, c, nil
	}
	return 0, 0, fmt.Errorf("rows %d leaves only %d columns (minimum %d)", rows, n/rows, minSide)
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// tailOf defaults the barbell/lollipop tail parameter to 1 and rejects a
// negative or oversized one.
func tailOf(gs GraphSpec, what string) (int, error) {
	switch {
	case gs.Tail == 0:
		return 1, nil
	case gs.Tail < 0:
		return 0, fmt.Errorf("%s tail must be >= 0 (0 means 1), got %d", what, gs.Tail)
	case gs.Tail > maxNodes:
		return 0, fmt.Errorf("%s tail must be <= %d, got %d", what, maxNodes, gs.Tail)
	}
	return gs.Tail, nil
}

func init() {
	RegisterGraphFamily("ring", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 3, "ring"); err != nil {
			return nil, err
		}
		return graph.Ring(gs.N), nil
	})
	RegisterGraphFamily("path", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 2, "path"); err != nil {
			return nil, err
		}
		return graph.Path(gs.N), nil
	})
	RegisterGraphFamily("complete", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 2, "complete"); err != nil {
			return nil, err
		}
		if err := needSize("complete", gs.N, gs.N*(gs.N-1)/2); err != nil {
			return nil, err
		}
		return graph.Complete(gs.N), nil
	})
	RegisterGraphFamily("star", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 2, "star"); err != nil {
			return nil, err
		}
		return graph.Star(gs.N), nil
	})
	RegisterGraphFamily("grid", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needSize("grid", gs.N, 2*gs.N); err != nil {
			return nil, err
		}
		r, c, err := rectShape(gs.N, gs.Rows, 1)
		if err != nil {
			return nil, err
		}
		if r*c < 2 {
			return nil, fmt.Errorf("grid needs at least 2 nodes")
		}
		return graph.Grid(r, c), nil
	})
	RegisterGraphFamily("torus", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needSize("torus", gs.N, 2*gs.N); err != nil {
			return nil, err
		}
		r, c, err := rectShape(gs.N, gs.Rows, 3)
		if err != nil {
			return nil, err
		}
		return graph.Torus(r, c), nil
	})
	RegisterGraphFamily("hypercube", func(gs GraphSpec) (*graph.Graph, error) {
		// 2^11 = maxNodes nodes, each of degree 11.
		if gs.N < 1 || gs.N > 11 {
			return nil, fmt.Errorf("hypercube dimension n must be in 1..11, got %d", gs.N)
		}
		return graph.Hypercube(gs.N), nil
	})
	RegisterGraphFamily("tree", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 2, "tree"); err != nil {
			return nil, err
		}
		return graph.RandomTree(gs.N, gs.Seed), nil
	})
	RegisterGraphFamily("gnp", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 2, "gnp"); err != nil {
			return nil, err
		}
		p := gs.P
		if p == 0 {
			p = 0.3
		}
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("gnp edge probability p must be in [0,1], got %v", p)
		}
		// Checked at the worst case, p = 1, so the bound does not depend
		// on the seed.
		if err := needSize("gnp", gs.N, gs.N*(gs.N-1)/2); err != nil {
			return nil, err
		}
		return graph.GNP(gs.N, p, gs.Seed), nil
	})
	RegisterGraphFamily("barbell", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 3, "barbell clique size"); err != nil {
			return nil, err
		}
		tail, err := tailOf(gs, "barbell")
		if err != nil {
			return nil, err
		}
		if err := needSize("barbell", 2*gs.N+tail-1, gs.N*(gs.N-1)+tail); err != nil {
			return nil, err
		}
		return graph.Barbell(gs.N, tail), nil
	})
	RegisterGraphFamily("lollipop", func(gs GraphSpec) (*graph.Graph, error) {
		if err := needN(gs, 3, "lollipop clique size"); err != nil {
			return nil, err
		}
		tail, err := tailOf(gs, "lollipop")
		if err != nil {
			return nil, err
		}
		if err := needSize("lollipop", gs.N+tail, gs.N*(gs.N-1)/2+tail); err != nil {
			return nil, err
		}
		return graph.Lollipop(gs.N, tail), nil
	})
	RegisterGraphFamily("two", func(gs GraphSpec) (*graph.Graph, error) {
		if gs.N != 0 && gs.N != 2 {
			return nil, fmt.Errorf("the two-node graph has exactly 2 nodes, got n=%d", gs.N)
		}
		return graph.TwoNodes(), nil
	})
}
