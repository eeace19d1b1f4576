// Package graph provides immutable, anonymous, port-labeled undirected graphs
// as used in the mobile-agent gathering literature.
//
// Nodes carry no identifiers visible to agents; the simulator uses integer
// node indices internally. Every edge {u, v} has two independent port
// numbers: one at u and one at v. The ports at a node of degree d are exactly
// 0..d-1.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// halfEdge is one directed half of an undirected edge.
type halfEdge struct {
	to      int // destination node
	revPort int // port number of this edge at the destination
}

// Graph is an immutable connected port-labeled undirected graph.
// The zero value is not usable; construct one with a Builder or a generator.
type Graph struct {
	name string
	adj  [][]halfEdge // adj[v][p] is the edge leaving v through port p
	m    int          // number of undirected edges
}

// Name returns the human-readable name given at construction (for traces and
// benchmark tables); it is never visible to agents.
func (g *Graph) Name() string { return g.name }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Traverse follows the edge leaving node v through port p and returns the
// destination node together with the port of entry at the destination.
func (g *Graph) Traverse(v, p int) (to, entryPort int) {
	h := g.adj[v][p]
	return h.to, h.revPort
}

// HasPort reports whether port p exists at node v.
func (g *Graph) HasPort(v, p int) bool { return p >= 0 && p < len(g.adj[v]) }

// MaxDegree returns the largest degree over all nodes.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the nodes adjacent to v in port order. The returned slice
// is freshly allocated.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, len(g.adj[v]))
	for p, h := range g.adj[v] {
		out[p] = h.to
	}
	return out
}

// Builder incrementally assembles a port-labeled graph. Ports at each node
// must end up contiguous 0..d-1; Build validates this and connectivity.
type Builder struct {
	name  string
	n     int
	edges []builderEdge
}

type builderEdge struct {
	u, v, pu, pv int
}

// NewBuilder returns a Builder for a graph with n nodes (indices 0..n-1).
func NewBuilder(name string, n int) *Builder {
	return &Builder{name: name, n: n}
}

// AddEdge records an undirected edge {u, v} with port pu at u and pv at v.
func (b *Builder) AddEdge(u, v, pu, pv int) *Builder {
	b.edges = append(b.edges, builderEdge{u: u, v: v, pu: pu, pv: pv})
	return b
}

// Errors returned by Build.
var (
	ErrTooSmall     = errors.New("graph: need at least one node")
	ErrBadEndpoint  = errors.New("graph: edge endpoint out of range")
	ErrSelfLoop     = errors.New("graph: self-loops are not allowed")
	ErrPortClash    = errors.New("graph: duplicate port at a node")
	ErrPortGap      = errors.New("graph: ports at a node are not contiguous 0..d-1")
	ErrDisconnected = errors.New("graph: graph is not connected")
)

// Build validates the accumulated edges and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.n < 1 {
		return nil, ErrTooSmall
	}
	// grow fills ports not yet wired with halfEdge{to: -1}, so a port is
	// taken exactly when it exists and its edge leads somewhere.
	adj := make([][]halfEdge, b.n)
	for _, e := range b.edges {
		if e.u < 0 || e.u >= b.n || e.v < 0 || e.v >= b.n {
			return nil, fmt.Errorf("%w: {%d,%d}", ErrBadEndpoint, e.u, e.v)
		}
		if e.u == e.v {
			return nil, fmt.Errorf("%w: node %d", ErrSelfLoop, e.u)
		}
		if e.pu < 0 || e.pv < 0 {
			return nil, fmt.Errorf("graph: negative port on edge {%d,%d}", e.u, e.v)
		}
		if e.pu < len(adj[e.u]) && adj[e.u][e.pu].to >= 0 {
			return nil, fmt.Errorf("%w: node %d port %d", ErrPortClash, e.u, e.pu)
		}
		if e.pv < len(adj[e.v]) && adj[e.v][e.pv].to >= 0 {
			return nil, fmt.Errorf("%w: node %d port %d", ErrPortClash, e.v, e.pv)
		}
		grow(&adj[e.u], e.pu)
		grow(&adj[e.v], e.pv)
		adj[e.u][e.pu] = halfEdge{to: e.v, revPort: e.pv}
		adj[e.v][e.pv] = halfEdge{to: e.u, revPort: e.pu}
	}
	for v := range adj {
		for p := range adj[v] {
			if adj[v][p].to < 0 {
				return nil, fmt.Errorf("%w: node %d missing port %d", ErrPortGap, v, p)
			}
		}
	}
	g := &Graph{name: b.name, adj: adj, m: len(b.edges)}
	if !g.connected() {
		return nil, ErrDisconnected
	}
	return g, nil
}

// MustBuild is Build but panics on error; intended for generators and tests
// whose inputs are statically known to be valid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func grow(s *[]halfEdge, p int) {
	for len(*s) <= p {
		*s = append(*s, halfEdge{to: -1})
	}
}

func (g *Graph) connected() bool {
	if len(g.adj) == 0 {
		return false
	}
	visited := make([]bool, len(g.adj))
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !visited[h.to] {
				visited[h.to] = true
				count++
				stack = append(stack, h.to)
			}
		}
	}
	return count == len(g.adj)
}

// Distances returns the BFS distance from src to every node.
func (g *Graph) Distances(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[v] {
			if dist[h.to] < 0 {
				dist[h.to] = dist[v] + 1
				queue = append(queue, h.to)
			}
		}
	}
	return dist
}

// Diameter returns the maximum over all pairs of the BFS distance.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.Distances(v) {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// ShortestPathPorts returns the port sequence of a lexicographically smallest
// shortest path from src to dst, or nil if src == dst. The result is
// deterministic for a given graph.
func (g *Graph) ShortestPathPorts(src, dst int) []int {
	if src == dst {
		return nil
	}
	distTo := g.Distances(dst)
	if distTo[src] < 0 {
		return nil
	}
	path := make([]int, 0, distTo[src])
	cur := src
	for cur != dst {
		best := -1
		for p := 0; p < g.Degree(cur); p++ {
			to, _ := g.Traverse(cur, p)
			if distTo[to] == distTo[cur]-1 {
				best = p
				break
			}
		}
		path = append(path, best)
		cur, _ = g.Traverse(cur, best)
	}
	return path
}

// CanonicalCode returns a deterministic string encoding of the port-labeled
// graph structure (node indices included). Two Graph values with identical
// adjacency and ports yield equal codes. Used by configuration enumeration.
func (g *Graph) CanonicalCode() string {
	type arc struct{ v, p, to, rp int }
	arcs := make([]arc, 0, 2*g.m)
	for v := range g.adj {
		for p, h := range g.adj[v] {
			arcs = append(arcs, arc{v, p, h.to, h.revPort})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].v != arcs[j].v {
			return arcs[i].v < arcs[j].v
		}
		return arcs[i].p < arcs[j].p
	})
	buf := make([]byte, 0, 8*len(arcs)+8)
	buf = append(buf, fmt.Sprintf("n%d", g.N())...)
	for _, a := range arcs {
		buf = append(buf, fmt.Sprintf(";%d.%d>%d.%d", a.v, a.p, a.to, a.rp)...)
	}
	return string(buf)
}
