// Package subiso implements subgraph isomorphism testing for undirected
// labeled graphs in the style of the VF2 algorithm of Cordella et al.
// (IEEE TPAMI 2004), the matcher the paper uses for feature matching
// (Section 6, Exp-4).
//
// The semantics are (non-induced) subgraph isomorphism: pattern p is a
// subgraph of target g if there is an injective vertex mapping that
// preserves vertex labels and maps every pattern edge to a target edge with
// the same label. Extra target edges between mapped vertices are allowed,
// matching the containment relation f ⊆ g used for feature vectors.
package subiso

import (
	"sort"
	"sync"

	"repro/internal/graph"
)

// Contains reports whether pattern is subgraph-isomorphic to target.
// Callers testing one pattern against many targets should Compile it
// once and call In instead.
func Contains(target, pattern *graph.Graph) bool {
	return Compile(pattern).In(target)
}

// FindMapping returns one injective mapping pattern→target witnessing
// subgraph isomorphism, or nil if none exists. mapping[i] is the target
// vertex matched to pattern vertex i.
func FindMapping(target, pattern *graph.Graph) []int {
	c := Compile(pattern)
	s := c.acquire(target)
	defer s.release()
	s.witness = make([]int, pattern.N())
	if !c.fits(target) || !s.match(0) {
		return nil
	}
	return s.witness
}

// CountMappings returns the number of distinct injective mappings of
// pattern into target, up to the given limit (0 means unlimited). It is
// used by tests comparing against brute force and by the occurrence-count
// vector ablation.
func CountMappings(target, pattern *graph.Graph, limit int) int {
	c := Compile(pattern)
	s := c.acquire(target)
	defer s.release()
	s.counting = true
	s.countLimit = limit
	if c.fits(target) {
		s.match(0)
	}
	return s.found
}

// Compiled is a pattern prepared once for any number of containment
// tests: its VF2 match order, each step's anchor (an already matched
// neighbour the candidates are drawn from) and the remaining edges back
// to earlier steps are computed by Compile, so a test only walks target
// adjacency. A Compiled pattern is immutable and safe for concurrent
// use; per-test search state comes from a pool.
type Compiled struct {
	p     *graph.Graph
	steps []step // steps[d] is the pattern vertex matched at depth d
}

// step is one position of the match order.
type step struct {
	v         int // pattern vertex
	label     graph.Label
	degree    int
	anchor    int // depth of an already matched neighbour, or -1 for a component root
	anchorLbl graph.Label
	back      []backEdge // edges to earlier depths other than the anchor's
}

// backEdge is a pattern edge from a step to an earlier depth, checked
// when a candidate target vertex is assigned.
type backEdge struct {
	depth int
	label graph.Label
}

// Compile prepares pattern for repeated containment tests. The match
// order keeps the partial pattern connected where possible (BFS from
// the highest-degree vertex of each component, neighbours by descending
// degree), which lets each new vertex be constrained by an already
// matched neighbour, its anchor.
func Compile(pattern *graph.Graph) *Compiled {
	n := pattern.N()
	c := &Compiled{p: pattern, steps: make([]step, 0, n)}
	placed := make([]bool, n)
	depthOf := make([]int, n)
	place := func(v, anchor int, anchorLbl graph.Label) {
		depthOf[v] = len(c.steps)
		placed[v] = true
		c.steps = append(c.steps, step{
			v: v, label: pattern.VertexLabel(v), degree: pattern.Degree(v),
			anchor: anchor, anchorLbl: anchorLbl,
		})
	}
	for len(c.steps) < n {
		// Pick the unplaced vertex with the highest degree as the next root.
		root, best := -1, -1
		for v := 0; v < n; v++ {
			if !placed[v] && pattern.Degree(v) > best {
				root, best = v, pattern.Degree(v)
			}
		}
		place(root, -1, 0)
		queue := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			// Sort neighbours by descending degree for tighter pruning.
			hs := append([]graph.Half(nil), pattern.Neighbors(v)...)
			sort.Slice(hs, func(i, j int) bool {
				return pattern.Degree(hs[i].To) > pattern.Degree(hs[j].To)
			})
			for _, h := range hs {
				if placed[h.To] {
					continue
				}
				place(h.To, depthOf[v], h.Label)
				queue = append(queue, h.To)
			}
		}
	}
	for d := range c.steps {
		st := &c.steps[d]
		for _, h := range pattern.Neighbors(st.v) {
			e := depthOf[h.To]
			if e < d && e != st.anchor {
				st.back = append(st.back, backEdge{depth: e, label: h.Label})
			}
		}
	}
	return c
}

// In reports whether the compiled pattern is subgraph-isomorphic to
// target. A warm call allocates nothing.
func (c *Compiled) In(target *graph.Graph) bool {
	if !c.fits(target) {
		return false
	}
	s := c.acquire(target)
	ok := s.match(0)
	s.release()
	return ok
}

// fits is the size precondition of any embedding.
func (c *Compiled) fits(target *graph.Graph) bool {
	return c.p.N() <= target.N() && c.p.M() <= target.M()
}

// state is the mutable part of one search. Between searches every used
// entry is false: assign undoes its marks on the way out, success
// included, so pooled state needs no clearing.
type state struct {
	c          *Compiled
	t          *graph.Graph
	pos        []int  // pos[d]: target vertex matched at depth d
	used       []bool // target vertex already matched
	counting   bool
	countLimit int
	found      int
	witness    []int // when non-nil, filled pattern vertex -> target vertex at the first full match
}

var statePool = sync.Pool{New: func() any { return new(state) }}

func (c *Compiled) acquire(target *graph.Graph) *state {
	s := statePool.Get().(*state)
	s.c, s.t = c, target
	if cap(s.pos) < len(c.steps) {
		s.pos = make([]int, len(c.steps))
	}
	s.pos = s.pos[:len(c.steps)]
	if cap(s.used) < target.N() {
		s.used = make([]bool, target.N())
	}
	s.used = s.used[:target.N()]
	return s
}

func (s *state) release() {
	*s = state{pos: s.pos, used: s.used}
	statePool.Put(s)
}

// match extends the partial mapping at depth d of the match order. It
// returns true when a full mapping is found (and counting is off).
func (s *state) match(d int) bool {
	if d == len(s.c.steps) {
		s.found++
		if s.counting {
			return s.countLimit > 0 && s.found >= s.countLimit
		}
		if s.witness != nil {
			for e, st := range s.c.steps {
				s.witness[st.v] = s.pos[e]
			}
		}
		return true
	}
	st := &s.c.steps[d]
	if st.anchor >= 0 {
		// Candidates are neighbours of the matched anchor with the right
		// edge label.
		for _, h := range s.t.Neighbors(s.pos[st.anchor]) {
			if h.Label != st.anchorLbl || s.used[h.To] || !s.feasible(st, h.To) {
				continue
			}
			if s.assign(d, h.To) {
				return true
			}
		}
		return false
	}
	// Root of a new component: try every target vertex.
	for tv := 0; tv < s.t.N(); tv++ {
		if s.used[tv] || !s.feasible(st, tv) {
			continue
		}
		if s.assign(d, tv) {
			return true
		}
	}
	return false
}

func (s *state) assign(d, tv int) bool {
	s.pos[d] = tv
	s.used[tv] = true
	done := s.match(d + 1)
	s.used[tv] = false
	return done
}

// feasible checks label, degree, and the edges back to every matched
// step other than the anchor (whose edge the candidate came from).
func (s *state) feasible(st *step, tv int) bool {
	if st.label != s.t.VertexLabel(tv) || st.degree > s.t.Degree(tv) {
		return false
	}
	for _, b := range st.back {
		l, ok := s.t.EdgeLabel(tv, s.pos[b.depth])
		if !ok || l != b.label {
			return false
		}
	}
	return true
}

// Isomorphic reports whether a and b are isomorphic labeled graphs.
// It requires equal sizes plus containment both ways being unnecessary:
// with equal vertex and edge counts, a single non-induced embedding of a
// into b is automatically edge-surjective, hence an isomorphism.
func Isomorphic(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	if a.Signature() != b.Signature() {
		return false
	}
	return Contains(b, a)
}
