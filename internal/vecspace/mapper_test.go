package vecspace

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/gspan"
	"repro/internal/subiso"
)

// naiveMap is the mapping oracle: the per-dimension size filter plus a
// fresh VF2 containment test, with no profile, compilation or pooling.
func naiveMap(features []*graph.Graph, q *graph.Graph) *BitVector {
	v := NewBitVector(len(features))
	for r, f := range features {
		if f.N() <= q.N() && f.M() <= q.M() && subiso.Contains(q, f) {
			v.Set(r)
		}
	}
	return v
}

// randomLabeled builds a connected random graph: a random spanning tree
// plus extra edges, vertex labels from [base, base+labels) and edge
// labels from [0, edgeLabels).
func randomLabeled(r *rand.Rand, n, extra, base, labels, edgeLabels int) *graph.Graph {
	g := &graph.Graph{}
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(base + r.Intn(labels)))
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(r.Intn(v), v, graph.Label(r.Intn(edgeLabels)))
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, graph.Label(r.Intn(edgeLabels)))
		}
	}
	return g
}

// disjointUnion returns a ∪ b with b's vertices renumbered after a's.
func disjointUnion(a, b *graph.Graph) *graph.Graph {
	g := a.Clone()
	off := g.N()
	for v := 0; v < b.N(); v++ {
		g.AddVertex(b.VertexLabel(v))
	}
	for _, e := range b.Edges() {
		g.MustAddEdge(off+e.U, off+e.V, e.Label)
	}
	return g
}

// mapperCorpus is one feature set with the queries mapped over it.
type mapperCorpus struct {
	name     string
	features []*graph.Graph
	queries  []*graph.Graph
}

// mapperCorpora covers the dimension and query shapes the mapper must
// get bit-identical to the oracle: mined features of the synthetic and
// chemical generators (single edges and small trees/rings), random-label
// patterns, disconnected and edgeless patterns, and queries that are
// in-distribution, label-disjoint ("sparse"), empty or a single vertex.
func mapperCorpora(t testing.TB) []mapperCorpus {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	edge := func() []*graph.Graph {
		return []*graph.Graph{graph.New(0), graph.New(1), func() *graph.Graph {
			g := &graph.Graph{}
			g.AddVertex(40)
			return g
		}()}
	}
	mined := func(db []*graph.Graph, minSup, maxEdges int) []*graph.Graph {
		feats, err := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: maxEdges})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*graph.Graph, len(feats))
		for i, f := range feats {
			out[i] = f.Graph
		}
		return out
	}
	sparse := func(qs []*graph.Graph) []*graph.Graph {
		out := make([]*graph.Graph, len(qs))
		for i, q := range qs {
			g := &graph.Graph{}
			for v := 0; v < q.N(); v++ {
				g.AddVertex(q.VertexLabel(v) + 40)
			}
			for _, e := range q.Edges() {
				g.MustAddEdge(e.U, e.V, e.Label)
			}
			out[i] = g
		}
		return out
	}

	var out []mapperCorpus

	synth := dataset.Synthetic(dataset.SynthConfig{N: 80, AvgEdges: 10, Labels: 6, Seed: 11})
	sf := mined(synth[:40], 4, 3)
	sq := append(append(synth[40:], sparse(synth[40:50])...), edge()...)
	out = append(out, mapperCorpus{"synthetic", sf, sq})

	chem := dataset.Chemical(dataset.ChemConfig{N: 60, Seed: 3})
	cf := mined(chem[:30], 6, 4)
	cq := append(append(chem[30:], sparse(chem[30:40])...), edge()...)
	out = append(out, mapperCorpus{"chemical", cf, cq})

	// Random labels: small patterns over 3 vertex and 2 edge labels,
	// including disconnected ones (two components, possibly sharing
	// labels) and edgeless ones, against random targets of mixed size.
	var rf, rq []*graph.Graph
	for i := 0; i < 40; i++ {
		p := randomLabeled(r, 1+r.Intn(4), r.Intn(3), 0, 3, 2)
		if i%4 == 0 {
			p = disjointUnion(p, randomLabeled(r, 1+r.Intn(3), r.Intn(2), 0, 3, 2))
		}
		rf = append(rf, p)
	}
	rf = append(rf, graph.New(2), graph.New(3), edge()[0], edge()[1])
	for i := 0; i < 60; i++ {
		q := randomLabeled(r, 1+r.Intn(12), r.Intn(8), 0, 3, 2)
		if i%5 == 0 {
			q = disjointUnion(q, randomLabeled(r, 1+r.Intn(4), r.Intn(2), 0, 3, 2))
		}
		rq = append(rq, q)
	}
	rq = append(append(rq, sparse(rq[:10])...), edge()...)
	out = append(out, mapperCorpus{"random", rf, rq})
	return out
}

func equalVectors(a, b *BitVector) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, w := range a.Words() {
		if w != b.Words()[i] {
			return false
		}
	}
	return true
}

// TestMapperMatchesNaive pins the compiled, prefiltered mapper to the
// oracle bit for bit on every corpus, and MapAllWorkers to Map.
func TestMapperMatchesNaive(t *testing.T) {
	for _, c := range mapperCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			m := NewMapper(c.features)
			ones := 0
			for i, q := range c.queries {
				got, want := m.Map(q), naiveMap(c.features, q)
				if !equalVectors(got, want) {
					t.Fatalf("query %d (%d vertices, %d edges): mapper %v, oracle %v",
						i, q.N(), q.M(), got.Words(), want.Words())
				}
				ones += want.Ones()
			}
			all := m.MapAllWorkers(c.queries, 3)
			for i, v := range all {
				if !equalVectors(v, m.Map(c.queries[i])) {
					t.Fatalf("MapAllWorkers differs from Map at %d", i)
				}
			}
			// The corpus must exercise both outcomes.
			if total := len(c.queries) * len(c.features); ones == 0 || ones == total {
				t.Fatalf("degenerate corpus: %d of %d bits set", ones, total)
			}
		})
	}
}

// graphFromBytes decodes a small graph from fuzz input: a vertex count,
// vertex labels, then (u, v, label) edge triples; invalid edges are
// skipped. It returns the graph and the unread rest.
func graphFromBytes(b []byte) (*graph.Graph, []byte) {
	g := &graph.Graph{}
	if len(b) == 0 {
		return g, b
	}
	n := int(b[0] % 7)
	b = b[1:]
	for i := 0; i < n && len(b) > 0; i++ {
		g.AddVertex(graph.Label(b[0] % 3))
		b = b[1:]
	}
	if len(b) == 0 {
		return g, b
	}
	m := int(b[0] % 10)
	b = b[1:]
	for i := 0; i < m && len(b) >= 3 && g.N() > 0; i++ {
		u, v := int(b[0])%g.N(), int(b[1])%g.N()
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, graph.Label(b[2]%2))
		}
		b = b[3:]
	}
	return g, b
}

// FuzzMapper checks the mapper against the oracle on arbitrary small
// feature sets and queries decoded from the input.
func FuzzMapper(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0, 1, 0, 1, 2, 1, 4, 0, 1, 2, 0, 0, 1, 1})
	f.Add([]byte{2, 1, 1, 1, 0, 1, 0, 0, 6, 1, 1, 0, 2, 1, 2, 5, 0, 1, 0, 1, 2, 1, 2, 3, 0})
	f.Add([]byte{0, 1, 5, 0, 1, 2, 0, 0})
	f.Add([]byte{6, 0, 0, 0, 1, 1, 2, 9, 0, 1, 0, 1, 2, 0, 2, 3, 1, 3, 4, 0, 4, 5, 1, 5, 0, 0, 6, 0, 1, 2, 0, 1, 2, 3, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var feats []*graph.Graph
		for i := 0; i < 4; i++ {
			var g *graph.Graph
			g, data = graphFromBytes(data)
			feats = append(feats, g)
		}
		q, _ := graphFromBytes(data)
		m := NewMapper(feats)
		if got, want := m.Map(q), naiveMap(feats, q); !equalVectors(got, want) {
			t.Fatalf("query %v: mapper %v, oracle %v (features %v)", q, got.Words(), want.Words(), feats)
		}
		// The features against each other: patterns as queries.
		for _, g := range feats {
			if got, want := m.Map(g), naiveMap(feats, g); !equalVectors(got, want) {
				t.Fatalf("feature query %v: mapper %v, oracle %v", g, got.Words(), want.Words())
			}
		}
	})
}

// TestMapContextAllocs pins the warm mapping cost: the pooled profile
// and matcher state leave the returned vector (header and words) as the
// only allocations.
func TestMapContextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	for _, c := range mapperCorpora(t) {
		m := NewMapper(c.features)
		for i, q := range c.queries[:5] {
			t.Run(fmt.Sprintf("%s/%d", c.name, i), func(t *testing.T) {
				for j := 0; j < 3; j++ {
					m.Map(q)
				}
				avg := testing.AllocsPerRun(50, func() {
					if _, err := m.MapContext(ctx, q); err != nil {
						t.Fatal(err)
					}
				})
				if avg > 2 {
					t.Fatalf("warm MapContext allocates %.1f objects, want <= 2", avg)
				}
			})
		}
	}
}

// TestMapContextCancelled: a cancelled context fails the call even when
// no dimension survives the profile filter.
func TestMapContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMapper([]*graph.Graph{graph.New(2)})
	if v, err := m.MapContext(ctx, graph.New(1)); err == nil || v != nil {
		t.Fatalf("cancelled MapContext = %v, %v", v, err)
	}
}
