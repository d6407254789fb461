package subiso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// bruteContains is an independent reference: try every injective mapping
// of pattern vertices into target vertices.
func bruteContains(target, pattern *graph.Graph) bool {
	n, k := target.N(), pattern.N()
	if k > n {
		return false
	}
	assign := make([]int, k)
	used := make([]bool, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			return true
		}
		for tv := 0; tv < n; tv++ {
			if used[tv] || target.VertexLabel(tv) != pattern.VertexLabel(i) {
				continue
			}
			ok := true
			for _, h := range pattern.Neighbors(i) {
				if h.To < i {
					l, has := target.EdgeLabel(tv, assign[h.To])
					if !has || l != h.Label {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			assign[i] = tv
			used[tv] = true
			if rec(i + 1) {
				return true
			}
			used[tv] = false
		}
		return false
	}
	return rec(0)
}

func randomGraph(r *rand.Rand, n, extraEdges, labels int) *graph.Graph {
	g := &graph.Graph{}
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(r.Intn(labels)))
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(r.Intn(v), v, graph.Label(r.Intn(labels)))
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, graph.Label(r.Intn(labels)))
		}
	}
	return g
}

func TestContainsAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		target := randomGraph(r, 4+r.Intn(5), r.Intn(6), 2)
		pattern := randomGraph(r, 2+r.Intn(4), r.Intn(3), 2)
		return Contains(target, pattern) == bruteContains(target, pattern)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestContainsSelf(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(6), r.Intn(5), 3)
		return Contains(g, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContainsSubgraphOfSelf(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(6), r.Intn(5), 3)
		// Take an induced subgraph on a random vertex subset.
		var vs []int
		for v := 0; v < g.N(); v++ {
			if r.Intn(2) == 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			vs = []int{0}
		}
		sub, _ := g.InducedSubgraph(vs)
		return Contains(g, sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFindMappingWitness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		target := randomGraph(r, 5+r.Intn(4), r.Intn(6), 2)
		pattern := randomGraph(r, 2+r.Intn(3), r.Intn(2), 2)
		m := FindMapping(target, pattern)
		if m == nil {
			return !bruteContains(target, pattern)
		}
		// Verify the mapping is a genuine witness.
		seen := map[int]bool{}
		for pv, tv := range m {
			if tv < 0 || tv >= target.N() || seen[tv] {
				return false
			}
			seen[tv] = true
			if target.VertexLabel(tv) != pattern.VertexLabel(pv) {
				return false
			}
		}
		for _, e := range pattern.Edges() {
			l, ok := target.EdgeLabel(m[e.U], m[e.V])
			if !ok || l != e.Label {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLabelMismatchFails(t *testing.T) {
	target := graph.New(2)
	target.MustAddEdge(0, 1, 5)
	pattern := &graph.Graph{}
	pattern.AddVertex(1) // label differs from target's 0
	if Contains(target, pattern) {
		t.Errorf("pattern with unseen vertex label reported contained")
	}
}

func TestEdgeLabelMismatchFails(t *testing.T) {
	target := graph.New(2)
	target.MustAddEdge(0, 1, 5)
	pattern := graph.New(2)
	pattern.MustAddEdge(0, 1, 6)
	if Contains(target, pattern) {
		t.Errorf("pattern with wrong edge label reported contained")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Pattern with two isolated labeled vertices; target must provide both.
	target := &graph.Graph{}
	target.AddVertex(1)
	target.AddVertex(2)
	pattern := &graph.Graph{}
	pattern.AddVertex(1)
	pattern.AddVertex(2)
	if !Contains(target, pattern) {
		t.Errorf("disconnected pattern should match")
	}
	pattern2 := &graph.Graph{}
	pattern2.AddVertex(1)
	pattern2.AddVertex(1)
	if Contains(target, pattern2) {
		t.Errorf("needs two label-1 vertices, target has one")
	}
}

func TestIsomorphic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := randomGraph(r, 3+r.Intn(6), r.Intn(5), 3)
		perm := r.Perm(g.N())
		inv := make([]int, g.N())
		for newID, oldID := range perm {
			inv[oldID] = newID
		}
		h := &graph.Graph{}
		lbl := make([]graph.Label, g.N())
		for old := 0; old < g.N(); old++ {
			lbl[inv[old]] = g.VertexLabel(old)
		}
		for _, l := range lbl {
			h.AddVertex(l)
		}
		for _, e := range g.Edges() {
			h.MustAddEdge(inv[e.U], inv[e.V], e.Label)
		}
		if !Isomorphic(g, h) {
			t.Fatalf("permuted copy not isomorphic (seed iter %d)", i)
		}
	}
}

func TestCountMappings(t *testing.T) {
	// Path a-b with labels (0)-(0), edge label 0; target triangle of
	// label-0 vertices: each ordered pair of adjacent vertices is a
	// mapping: 6 mappings.
	target := graph.New(3)
	target.MustAddEdge(0, 1, 0)
	target.MustAddEdge(1, 2, 0)
	target.MustAddEdge(0, 2, 0)
	pattern := graph.New(2)
	pattern.MustAddEdge(0, 1, 0)
	if got := CountMappings(target, pattern, 0); got != 6 {
		t.Errorf("CountMappings = %d, want 6", got)
	}
	if got := CountMappings(target, pattern, 4); got != 4 {
		t.Errorf("CountMappings limited = %d, want 4", got)
	}
}

// TestCompiledInMatchesContains compiles each pattern once and tests it
// against a stream of targets whose sizes go up and down, so pooled
// search state is reused across targets larger and smaller than the
// last; every answer must equal Contains and the brute-force reference.
func TestCompiledInMatchesContains(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var targets []*graph.Graph
	for i := 0; i < 60; i++ {
		n := []int{9, 2, 6, 1, 8, 3, 0}[i%7]
		if n == 0 {
			targets = append(targets, graph.New(0))
			continue
		}
		targets = append(targets, randomGraph(r, n, r.Intn(6), 2))
	}
	for i := 0; i < 80; i++ {
		pattern := randomGraph(r, 1+r.Intn(4), r.Intn(3), 2)
		if i%5 == 0 {
			// Disconnected: a second component after the first.
			other := randomGraph(r, 1+r.Intn(3), 0, 2)
			off := pattern.N()
			for v := 0; v < other.N(); v++ {
				pattern.AddVertex(other.VertexLabel(v))
			}
			for _, e := range other.Edges() {
				pattern.MustAddEdge(off+e.U, off+e.V, e.Label)
			}
		}
		c := Compile(pattern)
		for j, target := range targets {
			got := c.In(target)
			if want := Contains(target, pattern); got != want {
				t.Fatalf("pattern %d target %d: In=%v Contains=%v", i, j, got, want)
			}
			if want := bruteContains(target, pattern); got != want {
				t.Fatalf("pattern %d target %d: In=%v brute=%v", i, j, got, want)
			}
		}
	}
}
