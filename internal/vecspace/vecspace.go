// Package vecspace implements the multidimensional feature space the
// graphs are mapped into: binary containment vectors over a feature set F,
// the normalized Euclidean distance d(yi, yj) of Section 4, the inverted
// lists IF (feature → graphs) and IG (graph → features) of Section 5.1.2,
// and the Jaccard-coefficient feature-correlation score of Fig. 2.
package vecspace

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/gspan"
)

// BitVector is a packed binary feature vector y_i ∈ {0,1}^p.
type BitVector struct {
	bits []uint64
	p    int
}

// NewBitVector returns an all-zero vector of dimension p.
func NewBitVector(p int) *BitVector {
	return &BitVector{bits: make([]uint64, (p+63)/64), p: p}
}

// Len returns the dimension p.
func (v *BitVector) Len() int { return v.p }

// Set turns bit r on.
func (v *BitVector) Set(r int) { v.bits[r/64] |= 1 << (uint(r) % 64) }

// Get reports bit r.
func (v *BitVector) Get(r int) bool { return v.bits[r/64]&(1<<(uint(r)%64)) != 0 }

// Words returns the packed 64-bit words backing the vector, bit r stored
// at words[r/64] bit r%64. The slice is owned by the vector and must not
// be modified — it exists for compact serialization.
func (v *BitVector) Words() []uint64 { return v.bits }

// BitVectorFromWords reconstructs a vector of dimension p from packed
// words as returned by Words. The words are copied; bits at or beyond p
// must be zero (the caller is expected to validate untrusted input).
func BitVectorFromWords(p int, words []uint64) *BitVector {
	v := NewBitVector(p)
	copy(v.bits, words)
	return v
}

// Ones returns the number of set bits |F(g)|.
func (v *BitVector) Ones() int {
	c := 0
	for _, w := range v.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// HammingDistance returns the number of differing bits between v and o.
func (v *BitVector) HammingDistance(o *BitVector) int {
	c := 0
	for i := range v.bits {
		c += bits.OnesCount64(v.bits[i] ^ o.bits[i])
	}
	return c
}

// IntersectionSize returns |F(a) ∩ F(b)|.
func (v *BitVector) IntersectionSize(o *BitVector) int {
	c := 0
	for i := range v.bits {
		c += bits.OnesCount64(v.bits[i] & o.bits[i])
	}
	return c
}

// ForEach calls fn for every set bit of v in ascending order — the
// iteration primitive posting-list construction transposes vectors with.
func (v *BitVector) ForEach(fn func(r int)) {
	for wi, w := range v.bits {
		for w != 0 {
			fn(wi*64 + bits.TrailingZeros64(w))
			w &^= w & -w
		}
	}
}

// Distance returns the normalized Euclidean distance of Section 4:
// d(yi,yj) = sqrt( (1/p) Σ (yir-yjr)^2 ) ∈ [0,1]. For binary vectors the
// sum of squared differences is the Hamming distance.
func (v *BitVector) Distance(o *BitVector) float64 {
	if v.p == 0 {
		return 0
	}
	return math.Sqrt(float64(v.HammingDistance(o)) / float64(v.p))
}

// Index holds the inverted lists of Section 5.1.2 for a database mapped
// onto a feature set:
//
//	IF[r] = { i | f_r ⊆ g_i }   (feature → graphs, sorted)
//	IG[i] = { r | f_r ⊆ g_i }   (graph → features, sorted)
type Index struct {
	N, P int
	IF   [][]int
	IG   [][]int
}

// BuildIndex derives the inverted lists from mined features' support sets.
// Feature r's support set must list database indices in [0,n).
func BuildIndex(n int, features []*gspan.Feature) *Index {
	idx := &Index{N: n, P: len(features)}
	idx.IF = make([][]int, len(features))
	idx.IG = make([][]int, n)
	for r, f := range features {
		idx.IF[r] = append([]int(nil), f.Support...)
		for _, i := range f.Support {
			idx.IG[i] = append(idx.IG[i], r)
		}
	}
	for i := range idx.IG {
		sort.Ints(idx.IG[i])
	}
	return idx
}

// BuildIndexFromVectors derives the inverted lists from explicit binary
// vectors (used by tests and the ablations).
func BuildIndexFromVectors(vs []*BitVector) *Index {
	p := 0
	if len(vs) > 0 {
		p = vs[0].Len()
	}
	idx := &Index{N: len(vs), P: p}
	idx.IF = make([][]int, p)
	idx.IG = make([][]int, len(vs))
	for i, v := range vs {
		for r := 0; r < p; r++ {
			if v.Get(r) {
				idx.IF[r] = append(idx.IF[r], i)
				idx.IG[i] = append(idx.IG[i], r)
			}
		}
	}
	return idx
}

// Vector materializes graph i's binary vector from IG.
func (idx *Index) Vector(i int) *BitVector {
	v := NewBitVector(idx.P)
	for _, r := range idx.IG[i] {
		v.Set(r)
	}
	return v
}

// SymmetricDifferenceFeatures calls fn for every feature contained in
// exactly one of graphs i and j — the iteration pattern of Algorithm 4
// (Computeobj walks IGi ∪ IGj − IGi ∩ IGj).
func (idx *Index) SymmetricDifferenceFeatures(i, j int, fn func(r int)) {
	a, b := idx.IG[i], idx.IG[j]
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] == b[y]:
			x++
			y++
		case a[x] < b[y]:
			fn(a[x])
			x++
		default:
			fn(b[y])
			y++
		}
	}
	for ; x < len(a); x++ {
		fn(a[x])
	}
	for ; y < len(b); y++ {
		fn(b[y])
	}
}

// JaccardCorrelation returns the correlation score between features r and
// s, defined as the Jaccard coefficient of their support sets
// |sup(r) ∩ sup(s)| / |sup(r) ∪ sup(s)| (Fig. 2; Cheng et al. [35]).
func (idx *Index) JaccardCorrelation(r, s int) float64 {
	a, b := idx.IF[r], idx.IF[s]
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] == b[y]:
			inter++
			x++
			y++
		case a[x] < b[y]:
			x++
		default:
			y++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// TotalCorrelation sums the pairwise Jaccard correlation over the given
// feature subset — the y-axis of Fig. 2.
func (idx *Index) TotalCorrelation(selected []int) float64 {
	total := 0.0
	for i := 0; i < len(selected); i++ {
		for j := i + 1; j < len(selected); j++ {
			total += idx.JaccardCorrelation(selected[i], selected[j])
		}
	}
	return total
}

// Subindex restricts the index to the given feature subset (in the given
// order), renumbering features 0..len(sel)-1.
func (idx *Index) Subindex(sel []int) *Index {
	sub := &Index{N: idx.N, P: len(sel)}
	sub.IF = make([][]int, len(sel))
	sub.IG = make([][]int, idx.N)
	for newR, r := range sel {
		sub.IF[newR] = append([]int(nil), idx.IF[r]...)
		for _, i := range idx.IF[r] {
			sub.IG[i] = append(sub.IG[i], newR)
		}
	}
	for i := range sub.IG {
		sort.Ints(sub.IG[i])
	}
	return sub
}
