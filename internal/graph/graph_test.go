package graph

import (
	"strings"
	"testing"
)

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*Graph, error)
		wantErr error
	}{
		{
			name:    "empty graph",
			build:   func() (*Graph, error) { return NewBuilder("x", 0).Build() },
			wantErr: ErrTooSmall,
		},
		{
			name: "endpoint out of range",
			build: func() (*Graph, error) {
				return NewBuilder("x", 2).AddEdge(0, 5, 0, 0).Build()
			},
			wantErr: ErrBadEndpoint,
		},
		{
			name: "self loop",
			build: func() (*Graph, error) {
				return NewBuilder("x", 2).AddEdge(1, 1, 0, 1).Build()
			},
			wantErr: ErrSelfLoop,
		},
		{
			name: "port clash",
			build: func() (*Graph, error) {
				return NewBuilder("x", 3).
					AddEdge(0, 1, 0, 0).
					AddEdge(0, 2, 0, 0).
					Build()
			},
			wantErr: ErrPortClash,
		},
		{
			name: "port clash at the second endpoint",
			build: func() (*Graph, error) {
				return NewBuilder("x", 3).
					AddEdge(0, 1, 0, 0).
					AddEdge(2, 1, 0, 0).
					Build()
			},
			wantErr: ErrPortClash,
		},
		{
			name: "port gap",
			build: func() (*Graph, error) {
				return NewBuilder("x", 3).
					AddEdge(0, 1, 0, 0).
					AddEdge(0, 2, 2, 0).
					Build()
			},
			wantErr: ErrPortGap,
		},
		{
			name: "disconnected",
			build: func() (*Graph, error) {
				return NewBuilder("x", 4).
					AddEdge(0, 1, 0, 0).
					AddEdge(2, 3, 0, 0).
					Build()
			},
			wantErr: ErrDisconnected,
		},
		{
			name: "valid triangle",
			build: func() (*Graph, error) {
				return NewBuilder("tri", 3).
					AddEdge(0, 1, 0, 0).
					AddEdge(1, 2, 1, 0).
					AddEdge(2, 0, 1, 1).
					Build()
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := tt.build()
			if tt.wantErr != nil {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr.Error()) {
					t.Fatalf("got err %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if g == nil {
				t.Fatal("nil graph without error")
			}
		})
	}
}

// checkPortInvariants verifies the model invariants on any generated graph:
// contiguous ports, symmetric traversal, no self-loops, connectivity.
func checkPortInvariants(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		for p := 0; p < d; p++ {
			to, rp := g.Traverse(v, p)
			if to == v {
				t.Fatalf("%s: self-loop at node %d", g.Name(), v)
			}
			if to < 0 || to >= g.N() {
				t.Fatalf("%s: port %d at node %d leads out of range", g.Name(), p, v)
			}
			back, bp := g.Traverse(to, rp)
			if back != v || bp != p {
				t.Fatalf("%s: traversal not symmetric: %d--%d", g.Name(), v, to)
			}
		}
	}
	// Connectivity via Distances.
	for _, d := range g.Distances(0) {
		if d < 0 {
			t.Fatalf("%s: not connected", g.Name())
		}
	}
}

func TestGeneratorsInvariants(t *testing.T) {
	graphs := []*Graph{
		TwoNodes(),
		Ring(3), Ring(4), Ring(7), Ring(16),
		Path(2), Path(3), Path(9),
		Complete(2), Complete(3), Complete(5), Complete(8),
		Star(2), Star(3), Star(9),
		Grid(1, 2), Grid(2, 2), Grid(3, 4), Grid(4, 4),
		Torus(3, 3), Torus(3, 4),
		Hypercube(1), Hypercube(2), Hypercube(4),
		RandomTree(2, 1), RandomTree(8, 42), RandomTree(17, 7),
		GNP(5, 0.3, 1), GNP(12, 0.2, 99), GNP(9, 0.8, 3),
		Barbell(3, 1), Barbell(4, 3),
		Lollipop(3, 2), Lollipop(5, 4),
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			checkPortInvariants(t, g)
		})
	}
}

func TestGeneratorSizes(t *testing.T) {
	tests := []struct {
		g    *Graph
		n, m int
		dmax int
		diam int
	}{
		{TwoNodes(), 2, 1, 1, 1},
		{Ring(6), 6, 6, 2, 3},
		{Path(5), 5, 4, 2, 4},
		{Complete(5), 5, 10, 4, 1},
		{Star(6), 6, 5, 5, 2},
		{Grid(3, 3), 9, 12, 4, 4},
		{Torus(3, 3), 9, 18, 4, 2},
		{Hypercube(3), 8, 12, 3, 3},
		{Barbell(3, 2), 7, 8, 3, 4},
		{Lollipop(4, 3), 7, 9, 4, 4},
	}
	for _, tt := range tests {
		t.Run(tt.g.Name(), func(t *testing.T) {
			if got := tt.g.N(); got != tt.n {
				t.Errorf("N = %d, want %d", got, tt.n)
			}
			if got := tt.g.M(); got != tt.m {
				t.Errorf("M = %d, want %d", got, tt.m)
			}
			if got := tt.g.MaxDegree(); got != tt.dmax {
				t.Errorf("MaxDegree = %d, want %d", got, tt.dmax)
			}
			if got := tt.g.Diameter(); got != tt.diam {
				t.Errorf("Diameter = %d, want %d", got, tt.diam)
			}
		})
	}
}

func TestShortestPathPorts(t *testing.T) {
	g := Ring(6)
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			ports := g.ShortestPathPorts(src, dst)
			want := g.Distances(src)[dst]
			if len(ports) != want {
				t.Fatalf("path %d->%d has %d ports, want %d", src, dst, len(ports), want)
			}
			cur := src
			for _, p := range ports {
				if !g.HasPort(cur, p) {
					t.Fatalf("path %d->%d uses missing port %d at %d", src, dst, p, cur)
				}
				cur, _ = g.Traverse(cur, p)
			}
			if cur != dst {
				t.Fatalf("path %d->%d ends at %d", src, dst, cur)
			}
		}
	}
}

func TestShortestPathDeterministic(t *testing.T) {
	g := GNP(10, 0.4, 5)
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			a := g.ShortestPathPorts(src, dst)
			b := g.ShortestPathPorts(src, dst)
			if len(a) != len(b) {
				t.Fatalf("nondeterministic path lengths %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("nondeterministic path at %d", i)
				}
			}
		}
	}
}

func TestCanonicalCode(t *testing.T) {
	a := Ring(5)
	b := Ring(5)
	if a.CanonicalCode() != b.CanonicalCode() {
		t.Error("identical constructions must share canonical code")
	}
	if Ring(5).CanonicalCode() == Path(5).CanonicalCode() {
		t.Error("distinct graphs must differ in canonical code")
	}
	if !strings.HasPrefix(a.CanonicalCode(), "n5;") {
		t.Errorf("code should start with node count: %q", a.CanonicalCode())
	}
}

func TestNeighbors(t *testing.T) {
	g := Star(4)
	nb := g.Neighbors(0)
	if len(nb) != 3 {
		t.Fatalf("center neighbors = %v", nb)
	}
	for leaf := 1; leaf < 4; leaf++ {
		got := g.Neighbors(leaf)
		if len(got) != 1 || got[0] != 0 {
			t.Fatalf("leaf %d neighbors = %v", leaf, got)
		}
	}
}

func TestDeterministicGenerators(t *testing.T) {
	if RandomTree(9, 4).CanonicalCode() != RandomTree(9, 4).CanonicalCode() {
		t.Error("RandomTree must be deterministic per seed")
	}
	if GNP(9, 0.5, 4).CanonicalCode() != GNP(9, 0.5, 4).CanonicalCode() {
		t.Error("GNP must be deterministic per seed")
	}
	if GNP(9, 0.5, 4).CanonicalCode() == GNP(9, 0.5, 5).CanonicalCode() {
		t.Error("different seeds should (generically) differ")
	}
}
