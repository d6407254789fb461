package graphdim

import (
	"context"
	"math/rand"
	"testing"
)

// TestSearchAllocsBounded pins the O(1)-allocations property of a warm
// query on the uncached Index path: after the lazy SoA block, the scratch
// pool and the mapper's pooled profile and VF2 state have been primed, a
// repeated mapped Search — flat and pruned — must stay under a small
// fixed allocation ceiling per call, independent of the database size.
// The ceiling covers only per-query fixed costs (the query's mapped
// vector, the copied-out results, the SearchResult, a pruned plan's
// slices); it fails loudly if a future change reintroduces
// per-candidate allocation, which would scale with n and blow far past
// it, or per-dimension matcher allocation, which the in-distribution
// query (a database graph, so VF2 runs on every dimension its label
// profile covers) would show. The single-vertex query maps to the zero
// vector and measures the scan alone.
func TestSearchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(42))
	idx, db := equivBuild(t, rng, 500)
	ctx := context.Background()
	queries := []struct {
		name string
		q    *Graph
	}{
		{"single-vertex", NewGraph(1)},
		{"in-distribution", db[7]},
	}

	for _, tc := range []struct {
		name string
		opt  SearchOptions
	}{
		{"flat", SearchOptions{K: 10, NoPrune: true}},
		{"pruned", SearchOptions{K: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, qc := range queries {
				t.Run(qc.name, func(t *testing.T) {
					// Warm up: build the SoA block, grow the pooled scratch to
					// the collection's high-water mark, and fault in the pool
					// caches.
					for i := 0; i < 5; i++ {
						if _, err := idx.Search(ctx, qc.q, tc.opt); err != nil {
							t.Fatal(err)
						}
					}
					const ceiling = 40
					avg := testing.AllocsPerRun(50, func() {
						if _, err := idx.Search(ctx, qc.q, tc.opt); err != nil {
							t.Fatal(err)
						}
					})
					t.Logf("%s/%s: %.1f allocs per warm query", tc.name, qc.name, avg)
					if avg > ceiling {
						t.Fatalf("%s/%s: warm Search allocates %.1f objects per query, ceiling %d — "+
							"a per-candidate or per-dimension allocation has crept back in", tc.name, qc.name, avg, ceiling)
					}
				})
			}
		})
	}
}
