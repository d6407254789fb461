package graphdim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/vecspace"
)

// searchEachShard is the reference fan-out Collection.Search replaced:
// every shard maps the query itself through Index.Search, then the
// per-shard lists merge exactly as searchShards merges them.
func searchEachShard(t *testing.T, c *Collection, q *Graph, opt SearchOptions) *SearchResult {
	t.Helper()
	opt = c.overlay(opt)
	outs := make([]shardOut, len(c.shards))
	for i, sh := range c.shards {
		st := sh.state.Load()
		sopt := opt
		n := len(st.globals)
		sopt.Predicate = func(local int, g *Graph) bool { return local < n }
		res, err := st.idx.Search(context.Background(), q, sopt)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		ids := make([]int, len(res.Results))
		for j, r := range res.Results {
			ids[j] = st.globals[r.ID]
		}
		outs[i] = shardOut{res: res, ids: ids}
	}
	merged := &SearchResult{
		Results: mergeTopK(outs, opt.K),
		Engine:  opt.Engine,
		Matched: outs[0].res.Matched,
	}
	for i := range outs {
		merged.Candidates += outs[i].res.Candidates
	}
	return merged
}

// distinctMappers counts the mappers a collection's shards use — the
// number of times Collection.Search maps a query.
func distinctMappers(c *Collection) int {
	seen := map[*vecspace.Mapper]bool{}
	for _, sh := range c.shards {
		seen[sh.state.Load().idx.mapper] = true
	}
	return len(seen)
}

// distinctDimensionSets counts the structurally different dimension
// lists among a collection's shards.
func distinctDimensionSets(c *Collection) int {
	var sets [][]*Graph
	for _, sh := range c.shards {
		dims := sh.state.Load().idx.Dimensions()
		found := false
		for _, s := range sets {
			if sameGraphs(s, dims) {
				found = true
				break
			}
		}
		if !found {
			sets = append(sets, dims)
		}
	}
	return len(sets)
}

// TestMapOnceEquivalence pins Collection.Search — one mapping per
// distinct mapper, handed to every shard sharing it — to the reference
// fan-out in which every shard maps the query itself: same results, same
// Matched, same candidate count. It covers a fresh collection, the same
// collection reopened in mapped and heap memory modes (each shard's
// dimensions decoded separately, yet one shared mapper), and a
// collection with one compacted shard (two dimension sets, two mappers).
func TestMapOnceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 90)
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	build := Options{Dimensions: 10, Tau: 0.1, MaxPatternEdges: 3, MCSBudget: 300, Algorithm: DSPMap, Seed: rng.Int63()}
	c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 3, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	extra := dataset.Synthetic(dataset.SynthConfig{N: 9, AvgEdges: 9, Labels: 5, Seed: rng.Int63()})
	if _, err := c.Add(ctx, extra...); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(4, 11); err != nil {
		t.Fatal(err)
	}

	queries := append([]*Graph{db[rng.Intn(len(db))], db[rng.Intn(len(db))], extra[3], NewGraph(1)},
		dataset.Synthetic(dataset.SynthConfig{N: 3, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)
	vh, _ := db[0].LabelHistogram()
	var label int
	for l := range vh {
		label = int(l)
		break
	}
	opts := []SearchOptions{
		{K: 7},
		{K: 7, NoPrune: true},
		{K: 5, Engine: EngineVerified, VerifyFactor: 2},
		{K: 4, Engine: EngineExact},
		{K: 6, Filters: []*pipeline.Filter{{VertexLabels: []pipeline.LabelCount{{Label: label}}}}},
		{K: 200},
	}
	check := func(name string, c *Collection, wantMappers int) {
		t.Helper()
		if got := distinctMappers(c); got != wantMappers {
			t.Fatalf("%s: %d distinct mappers, want %d", name, got, wantMappers)
		}
		for qi, q := range queries {
			for oi, opt := range opts {
				got, err := c.Search(ctx, q, opt)
				if err != nil {
					t.Fatalf("%s q%d opt%d: %v", name, qi, oi, err)
				}
				want := searchEachShard(t, c, q, opt)
				if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Matched, want.Matched) ||
					got.Candidates != want.Candidates || got.Engine != want.Engine {
					t.Fatalf("%s q%d opt%d: map-once search differs from per-shard mapping:\n got %+v\nwant %+v",
						name, qi, oi, got, want)
				}
			}
		}
	}

	check("fresh", c, 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, mode := range []MemoryMode{MemoryMap, MemoryHeap} {
		st, err := OpenStore(dir, StoreOptions{Memory: mode})
		if err != nil {
			t.Fatal(err)
		}
		rc, _ := st.Collection("c")
		check(fmt.Sprintf("reopened(mode=%d)", mode), rc, 1)
		st.Close()
	}

	st, err := OpenStore(dir, StoreOptions{Memory: MemoryMap})
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := st.Collection("c")
	ran, err := rc.shards[1].tryCompact(ctx, rc.build, rc.shardIdxWorkers())
	if err != nil || !ran {
		t.Fatalf("compacting shard 1: ran=%v err=%v", ran, err)
	}
	check("compacted", rc, 2)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, err = OpenStore(dir, StoreOptions{Memory: MemoryHeap})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rc, _ = st.Collection("c")
	check("compacted+reopened", rc, distinctDimensionSets(rc))
}

// TestSharedMapperConcurrentSearchAdd drives searches and Adds against a
// collection whose shards share one mapper — the mapper's pooled state
// is the only thing they share — so the race detector sees concurrent
// MapContext calls from the search fan-out and the per-shard Add
// mapping at once.
func TestSharedMapperConcurrentSearchAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 60)
	s := NewStore(StoreOptions{})
	defer s.Close()
	c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := distinctMappers(c); got != 1 {
		t.Fatalf("%d distinct mappers after CreateFromIndex, want 1", got)
	}
	adds := dataset.Synthetic(dataset.SynthConfig{N: 24, AvgEdges: 9, Labels: 5, Seed: rng.Int63()})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := db[(w*31+i)%len(db)]
				if _, err := c.Search(ctx, q, SearchOptions{K: 5}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(adds); i += 3 {
			if _, err := c.Add(ctx, adds[i:i+3]...); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Each added graph got the same bits a fresh mapping gives.
	m := vecspace.NewMapper(idx.Dimensions())
	for i, g := range adds {
		id := len(db) + i
		sh := c.shards[placeID(id, len(c.shards))]
		st := sh.state.Load()
		got := st.idx.snap.Load().vectorAt(st.localOf(id))
		if want := m.Map(g); !reflect.DeepEqual(got.Words(), want.Words()) {
			t.Fatalf("added graph %d: vector %v, want %v", id, got.Words(), want.Words())
		}
	}
}
