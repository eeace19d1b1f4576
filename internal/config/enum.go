package config

import (
	"fmt"

	"nochatter/internal/graph"
)

// Enumerator produces the fixed enumeration Ω = (φ1, φ2, φ3, ...) used by
// GatherUnknownUpperBound. Configurations are grouped by increasing budget
// B = max(graph size, largest label) and, within a budget, ordered by graph
// size DESCENDING (so that larger graphs appear at small indices — any fixed
// order is legal per the paper, and this one keeps feasible experiment
// configurations early), then by a canonical order over edge sets, port
// assignments and labelings.
//
// The enumeration is complete for graphs of size up to MaxN (labels are
// unbounded): it is the restriction of a full enumeration of Ω to sizes
// <= MaxN, which is sufficient and faithful for any run whose true
// configuration has at most MaxN nodes. Only MaxN <= 3 is supported: the
// doubly-exponential hypothesis schedule makes larger true sizes unreachable
// in simulation anyway (that exponential growth is itself one of the paper's
// claims, reproduced in experiment E8).
//
// An Enumerator is not safe for concurrent use: At and IndexOf generate
// budgets lazily into a shared cache.
type Enumerator struct {
	maxN  int
	cache []*Configuration
	// budget already generated up to (inclusive).
	budget int
}

// MaxSupportedN is the largest graph size the enumerator generates.
const MaxSupportedN = 3

// NewEnumerator returns an enumerator for configurations with graphs of at
// most maxN nodes (2 <= maxN <= MaxSupportedN).
func NewEnumerator(maxN int) *Enumerator {
	if maxN < 2 || maxN > MaxSupportedN {
		panic(fmt.Sprintf("config: maxN %d out of supported range [2,%d]", maxN, MaxSupportedN))
	}
	return &Enumerator{maxN: maxN, budget: 1}
}

// At returns φ_h (1-based). It generates budgets lazily and caches them.
func (e *Enumerator) At(h int) *Configuration {
	if h < 1 {
		panic("config: hypothesis index must be >= 1")
	}
	for len(e.cache) < h {
		e.budget++
		e.cache = append(e.cache, e.generateBudget(e.budget)...)
	}
	return e.cache[h-1]
}

// IndexOf returns the 1-based index of the configuration with the same Code
// within the first limit entries, or -1 if absent there.
func (e *Enumerator) IndexOf(c *Configuration, limit int) int {
	code := c.Code()
	for h := 1; h <= limit; h++ {
		if e.At(h).Code() == code {
			return h
		}
	}
	return -1
}

// generateBudget returns all configurations with max(n, maxLabel) == b,
// n <= maxN, in canonical order.
func (e *Enumerator) generateBudget(b int) []*Configuration {
	var out []*Configuration
	top := e.maxN
	if b < top {
		top = b
	}
	for n := top; n >= 2; n-- {
		for _, g := range enumerateGraphs(n) {
			for _, labeling := range enumerateLabelings(n, b) {
				out = append(out, &Configuration{G: g, Labels: labeling})
			}
		}
	}
	return out
}

// enumerateLabelings returns all labelings of >= 2 of the n nodes with
// distinct labels from {1..b} such that max(n, maxLabel) == b, in canonical
// order (node subset by ascending bitmask, then assignment tuples
// lexicographically).
func enumerateLabelings(n, b int) []map[int]int {
	var out []map[int]int
	requireMax := n < b // if n == b any labels <= b qualify; else max must be b
	for mask := 0; mask < 1<<n; mask++ {
		nodes := nodesOf(mask, n)
		if len(nodes) < 2 {
			continue
		}
		for _, tuple := range injectiveTuples(len(nodes), b) {
			maxLabel := 0
			for _, l := range tuple {
				if l > maxLabel {
					maxLabel = l
				}
			}
			if requireMax && maxLabel != b {
				continue
			}
			m := make(map[int]int, len(nodes))
			for i, node := range nodes {
				m[node] = tuple[i]
			}
			out = append(out, m)
		}
	}
	return out
}

func nodesOf(mask, n int) []int {
	var out []int
	for v := 0; v < n; v++ {
		if mask&(1<<v) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// injectiveTuples returns all k-tuples of distinct values from {1..b} in
// lexicographic order.
func injectiveTuples(k, b int) [][]int {
	var out [][]int
	tuple := make([]int, 0, k)
	used := make([]bool, b+1)
	var rec func()
	rec = func() {
		if len(tuple) == k {
			cp := make([]int, k)
			copy(cp, tuple)
			out = append(out, cp)
			return
		}
		for v := 1; v <= b; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			tuple = append(tuple, v)
			rec()
			tuple = tuple[:len(tuple)-1]
			used[v] = false
		}
	}
	rec()
	return out
}

// enumerateGraphs returns every connected port-labeled graph on n nodes
// (node indices fixed; isomorphic duplicates are intentionally kept — the
// enumeration need not be irredundant) in canonical order: edge subsets of
// K_n by ascending bitmask, then port permutations per node in lexicographic
// product order.
func enumerateGraphs(n int) []*graph.Graph {
	type edge struct{ u, v int }
	var allEdges []edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			allEdges = append(allEdges, edge{u, v})
		}
	}
	var out []*graph.Graph
	for mask := 1; mask < 1<<len(allEdges); mask++ {
		var edges []edge
		for i, e := range allEdges {
			if mask&(1<<i) != 0 {
				edges = append(edges, e)
			}
		}
		// Incident edge lists per node, in enumeration order.
		incident := make([][]int, n) // node -> indices into edges
		for i, e := range edges {
			incident[e.u] = append(incident[e.u], i)
			incident[e.v] = append(incident[e.v], i)
		}
		connected := true
		for v := 0; v < n; v++ {
			if len(incident[v]) == 0 {
				connected = false
				break
			}
		}
		if !connected {
			continue
		}
		// Enumerate port assignments: per node, a permutation of 0..d-1 over
		// its incident edges; product over nodes.
		perms := make([][][]int, n)
		for v := 0; v < n; v++ {
			perms[v] = permutations(len(incident[v]))
		}
		idx := make([]int, n)
		for {
			ports := make(map[[2]int]int) // (node, edgeIndex) -> port
			for v := 0; v < n; v++ {
				for j, ei := range incident[v] {
					ports[[2]int{v, ei}] = perms[v][idx[v]][j]
				}
			}
			b := graph.NewBuilder(fmt.Sprintf("enum-n%d-m%d", n, mask), n)
			for i, e := range edges {
				b.AddEdge(e.u, e.v, ports[[2]int{e.u, i}], ports[[2]int{e.v, i}])
			}
			g, err := b.Build()
			if err == nil {
				out = append(out, g)
			} else {
				// Disconnected multi-component masks were filtered above by
				// the min-degree check only; full connectivity is checked by
				// Build, which may still reject (e.g. two disjoint edges).
				_ = err
			}
			// Advance the product index.
			carry := n - 1
			for carry >= 0 {
				idx[carry]++
				if idx[carry] < len(perms[carry]) {
					break
				}
				idx[carry] = 0
				carry--
			}
			if carry < 0 {
				break
			}
		}
	}
	return out
}

// permutations returns all permutations of 0..k-1 in lexicographic order.
func permutations(k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	cur := make([]int, 0, k)
	used := make([]bool, k)
	var rec func()
	rec = func() {
		if len(cur) == k {
			cp := make([]int, k)
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for v := 0; v < k; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			cur = append(cur, v)
			rec()
			cur = cur[:len(cur)-1]
			used[v] = false
		}
	}
	rec()
	return out
}
