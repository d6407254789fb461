package vecspace

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/subiso"
)

// Mapper maps graphs onto a fixed feature set F = {f1..fp} by subgraph
// isomorphism tests (φ in the paper). It is how unseen query graphs enter
// the multidimensional space.
//
// NewMapper compiles every feature once: its VF2 match order
// (subiso.Compiled) and an exact label profile — vertex-label counts,
// (endpoint label, endpoint label, edge label) triple counts and the
// maximum degree. A Map call profiles the query once, drops every
// feature whose profile the query does not cover (a necessary condition
// for containment, and a sufficient one for features with at most one
// edge), and runs VF2 only on the survivors. A Mapper is immutable after
// construction and safe for concurrent use: per-call profile and matcher
// state come from pools, so a warm Map allocates only the returned
// vector.
type Mapper struct {
	features []*graph.Graph
	dims     []dimension
}

// dimension is one compiled feature.
type dimension struct {
	prof profile
	// exact: the profile test alone decides containment. True for
	// features with at most one edge — once the labels are there, an
	// embedding exists.
	exact bool
	match *subiso.Compiled
}

// NewMapper builds a mapper over the given ordered feature list.
func NewMapper(features []*graph.Graph) *Mapper {
	m := &Mapper{features: features, dims: make([]dimension, len(features))}
	for r, f := range features {
		var sc profileScratch // each dimension keeps its own buffers
		sc.build(f)
		m.dims[r] = dimension{
			prof:  sc.prof,
			exact: f.M() <= 1,
			match: subiso.Compile(f),
		}
	}
	return m
}

// Dim returns p = |F|.
func (m *Mapper) Dim() int { return len(m.features) }

// Features returns the ordered feature list (shared storage).
func (m *Mapper) Features() []*graph.Graph { return m.features }

// Map computes the binary vector of g: bit r is 1 iff f_r ⊆ g.
func (m *Mapper) Map(g *graph.Graph) *BitVector {
	v, _ := m.MapContext(context.Background(), g)
	return v
}

// MapContext is Map with cancellation: ctx is checked on entry and
// before each subgraph-isomorphism test (each test is the expensive
// unit), and a cancelled call returns (nil, ctx.Err()).
func (m *Mapper) MapContext(ctx context.Context, g *graph.Graph) (*BitVector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := NewBitVector(len(m.dims))
	sc := scratchPool.Get().(*profileScratch)
	defer scratchPool.Put(sc)
	sc.build(g)
	q := &sc.prof
	for r := range m.dims {
		d := &m.dims[r]
		if !d.prof.coveredBy(q) {
			continue
		}
		if !d.exact {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if !d.match.In(g) {
				continue
			}
		}
		v.Set(r)
	}
	return v, nil
}

// MapAll maps a whole database sequentially.
func (m *Mapper) MapAll(db []*graph.Graph) []*BitVector {
	return m.MapAllWorkers(db, 1)
}

// MapAllWorkers maps a whole database with a bounded worker pool, one
// graph per task (workers <= 0 means one per CPU). Per-graph mapping is
// embarrassingly parallel — the p subgraph-isomorphism tests of graph i
// share nothing with those of graph j — so the result is identical to
// MapAll for every worker count.
func (m *Mapper) MapAllWorkers(db []*graph.Graph, workers int) []*BitVector {
	out := make([]*BitVector, len(db))
	pool.For(pool.DefaultWorkers(workers), len(db), func(i int) {
		out[i] = m.Map(db[i])
	})
	return out
}

// profile is an exact label summary of a graph. If f ⊆ g, every count
// of f is at most g's: an embedding maps vertices injectively onto
// vertices of the same label and edges injectively onto edges with the
// same label and endpoint labels, and never lowers a degree.
type profile struct {
	n, m, maxDeg int
	vertex       []labelCount  // ascending by label
	edges        []tripleCount // ascending by triple
}

type labelCount struct {
	l graph.Label
	n int
}

// triple is an edge seen through its labels, endpoints ordered a <= b.
type triple struct{ a, b, l graph.Label }

type tripleCount struct {
	t triple
	n int
}

func cmpTriple(x, y triple) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	if c := cmp.Compare(x.b, y.b); c != 0 {
		return c
	}
	return cmp.Compare(x.l, y.l)
}

// coveredBy reports whether q's counts dominate p's.
func (p *profile) coveredBy(q *profile) bool {
	if p.n > q.n || p.m > q.m || p.maxDeg > q.maxDeg {
		return false
	}
	for _, e := range p.edges {
		i, ok := slices.BinarySearchFunc(q.edges, e.t, func(c tripleCount, t triple) int { return cmpTriple(c.t, t) })
		if !ok || q.edges[i].n < e.n {
			return false
		}
	}
	for _, lc := range p.vertex {
		i, ok := slices.BinarySearchFunc(q.vertex, lc.l, func(c labelCount, l graph.Label) int { return cmp.Compare(c.l, l) })
		if !ok || q.vertex[i].n < lc.n {
			return false
		}
	}
	return true
}

// profileScratch holds the buffers one profile is computed in; pooled
// so that profiling a query allocates nothing once warm.
type profileScratch struct {
	labels  []graph.Label
	triples []triple
	prof    profile
}

var scratchPool = sync.Pool{New: func() any { return new(profileScratch) }}

// build computes g's profile into sc.prof, reusing sc's buffers.
func (sc *profileScratch) build(g *graph.Graph) {
	p := &sc.prof
	p.n, p.m, p.maxDeg = g.N(), g.M(), 0
	sc.labels, sc.triples = sc.labels[:0], sc.triples[:0]
	for v := 0; v < g.N(); v++ {
		lv := g.VertexLabel(v)
		sc.labels = append(sc.labels, lv)
		hs := g.Neighbors(v)
		p.maxDeg = max(p.maxDeg, len(hs))
		for _, h := range hs {
			if h.To < v {
				continue // each undirected edge once, from its lower endpoint
			}
			a, b := lv, g.VertexLabel(h.To)
			if a > b {
				a, b = b, a
			}
			sc.triples = append(sc.triples, triple{a, b, h.Label})
		}
	}
	slices.Sort(sc.labels)
	slices.SortFunc(sc.triples, cmpTriple)
	p.vertex = p.vertex[:0]
	for _, l := range sc.labels {
		if k := len(p.vertex) - 1; k >= 0 && p.vertex[k].l == l {
			p.vertex[k].n++
		} else {
			p.vertex = append(p.vertex, labelCount{l, 1})
		}
	}
	p.edges = p.edges[:0]
	for _, t := range sc.triples {
		if k := len(p.edges) - 1; k >= 0 && p.edges[k].t == t {
			p.edges[k].n++
		} else {
			p.edges = append(p.edges, tripleCount{t, 1})
		}
	}
}
