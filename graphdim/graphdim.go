// Package graphdim is the public API of this repository: an online graph
// search library that selects a small structural dimension — a set of
// frequent subgraphs — from a graph database so that top-k similarity
// queries can run in a multidimensional vector space instead of computing
// NP-hard maximum-common-subgraph dissimilarities per query.
//
// It implements the DS-preserved mapping of Zhu, Yu and Qin, "Leveraging
// Graph Dimensions in Online Graph Search" (PVLDB 8(1), 2014): the DSPM
// dimension-selection algorithm, its scalable approximation DSPMap, the
// gSpan miner that produces the candidate subgraphs, the VF2 matcher that
// maps unseen queries into the space, and exact MCS-based search for
// ground truth.
//
// Typical use:
//
//	db, _ := graphdim.ReadGraphs(f)
//	idx, _ := graphdim.Build(db, graphdim.Options{Dimensions: 200})
//	res, _ := idx.Search(ctx, query, graphdim.SearchOptions{K: 10})
//
// Search unifies the three query engines — the paper's mapped-space scan,
// the filter-and-verify hybrid, and exact MCS search — behind per-query
// options (engine, verification factor, metric override, result
// predicate) and honours context cancellation. BuildContext parallelizes
// the offline path (mining, the pairwise MCS matrix, vector
// materialization) across Options.Workers goroutines, reports progress
// per stage, and is cancellable.
//
// The paper's DS-preserved mapping places unseen graphs into the fixed
// dimension space with a cheap VF2 pass, so an index can also grow
// online: Add maps new graphs onto the existing dimensions, Remove
// tombstones graphs, and StaleRatio tells operators when enough of the
// database postdates the dimension selection that a full re-Build is
// warranted. Readers are never blocked — updates swap an immutable
// snapshot. WriteTo/ReadIndex persist an index in a compact versioned
// binary format (v1 JSON files remain readable) so query servers
// (cmd/gserve) can load it without re-mining or re-running DSPM.
//
// Above the single index, Store manages named collections sharded across
// parallel indexes: graphs place onto shards by a fixed hash of their
// global id, Search fans out and merges per-shard top-k heaps into one
// globally ranked result (exactly the unsharded ranking — see
// Collection.Search), Add and Save/OpenStore parallelize per shard, and a
// background compactor rebuilds any shard whose StaleRatio crosses a
// policy threshold while readers keep serving.
//
// Two accelerators keep the hot path sublinear without changing any
// ranked result: per-dimension posting lists prune the mapped-space
// scan to the graphs sharing a dimension with the query (an adaptive
// cost model falls back to the flat scan for dense queries; see
// SearchOptions.NoPrune), and collections built with CacheOptions serve
// repeat queries from an LRU fenced by per-shard generation counters,
// so any committed mutation or compaction invalidates affected entries
// for free (see Index.Generation).
package graphdim

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gspan"
	"repro/internal/mcs"
	"repro/internal/pool"
	"repro/internal/posting"
	"repro/internal/subiso"
	"repro/internal/vecspace"
)

// Graph is an undirected labeled simple graph (vertices and edges carry
// integer labels). Construct with NewGraph / AddVertex / AddEdge or parse
// with ReadGraphs.
type Graph = graph.Graph

// Label is a vertex or edge label.
type Label = graph.Label

// Edge is a normalized undirected edge.
type Edge = graph.Edge

// NewGraph returns an empty graph with n vertices labeled 0.
func NewGraph(n int) *Graph { return graph.New(n) }

// ReadGraphs parses a sequence of graphs in the standard text format
// ("t # id" / "v id label" / "e u v label").
func ReadGraphs(r io.Reader) ([]*Graph, error) { return graph.ReadAll(r) }

// WriteGraphs writes graphs in the same text format.
func WriteGraphs(w io.Writer, gs []*Graph) error { return graph.WriteAll(w, gs) }

// Metric selects the MCS-based graph dissimilarity.
type Metric = mcs.Metric

// Dissimilarity metrics (Eq. 1 and Eq. 2 of the paper).
const (
	// Delta1 normalizes by the larger graph (Bunke–Shearer).
	Delta1 = mcs.Delta1
	// Delta2 normalizes by the average size; the paper's default.
	Delta2 = mcs.Delta2
)

// Algorithm selects the dimension-computation algorithm.
type Algorithm int

const (
	// DSPM is the exact iterative algorithm (Section 5.1); it needs the
	// full pairwise dissimilarity matrix — O(n²) MCS computations.
	DSPM Algorithm = iota
	// DSPMap is the partition-based approximation (Section 5.2); its cost
	// grows linearly with the database size.
	DSPMap
)

// BuildStage identifies a stage of the offline build pipeline, in
// execution order.
type BuildStage int

const (
	// StageMining is frequent-subgraph candidate mining (gSpan).
	StageMining BuildStage = iota
	// StageMatrix is the pairwise MCS dissimilarity matrix (DSPM only —
	// DSPMap evaluates dissimilarities lazily inside partitions).
	StageMatrix
	// StageDSPM is the dimension computation (DSPM iterations or the
	// DSPMap partition/combine recursion).
	StageDSPM
	// StageVectors is the materialization of the database's binary
	// vectors over the selected dimensions.
	StageVectors
)

// String implements fmt.Stringer.
func (s BuildStage) String() string {
	switch s {
	case StageMining:
		return "mining"
	case StageMatrix:
		return "matrix"
	case StageDSPM:
		return "dspm"
	case StageVectors:
		return "vectors"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Options configures Build. The zero value of every field selects the
// paper's default (noted per field); Validate rejects values outside a
// field's domain instead of silently substituting the default.
type Options struct {
	// Dimensions is p, the number of subgraph dimensions to select.
	// Zero means 200 (a mid-range value from the paper's sweep).
	Dimensions int
	// Tau is the minimum-support ratio for frequent subgraph mining, in
	// (0, 1]; zero means 0.05, the paper's setting.
	Tau float64
	// MaxPatternEdges caps mined subgraph size; zero means 6.
	MaxPatternEdges int
	// MaxCandidates caps the mined candidate set m; zero means unlimited.
	MaxCandidates int
	// Metric is the graph dissimilarity; default Delta2.
	Metric Metric
	// Algorithm picks DSPM (default) or DSPMap.
	Algorithm Algorithm
	// PartitionSize is DSPMap's b; zero means max(20, n/20).
	PartitionSize int
	// MCSBudget bounds each MCS search in branch-and-bound nodes; zero
	// means 200000 (effectively exact for molecule-sized graphs).
	MCSBudget int64
	// Seed drives DSPMap's random choices.
	Seed int64
	// Iterations caps DSPM's majorization loop; zero means 30.
	Iterations int
	// Workers bounds the worker pools used by the offline build path
	// (gSpan mining, the DSPM pairwise MCS matrix, vector
	// materialization) and inherited by the index for batch fan-out.
	// Zero or negative means one worker per CPU. Build output is
	// identical for every worker count — parallelism changes only
	// wall-clock time. Note the DSPMap algorithm evaluates its
	// dissimilarities lazily inside sequential partition passes, so
	// Workers accelerates only its mining and vector stages; the
	// MCS-dominated stage Workers speeds up most is DSPM's matrix.
	Workers int
	// Progress, when non-nil, is called as the build advances: at the
	// start of each stage with (stage, 0, total) and at its end with
	// (stage, total, total), plus per-unit updates where the stage has
	// natural units (matrix rows, DSPM iterations). total is 0 when the
	// stage's size is unknown up front (mining, DSPMap dimension
	// computation). Calls are serialized; the callback must be fast, as
	// it runs on the build path.
	Progress func(stage BuildStage, done, total int)
}

// Validate reports whether every option is inside its domain. Zero values
// are always valid ("use the paper default"); out-of-domain values — a
// negative dimension count, Tau outside (0, 1], a negative budget — are
// rejected rather than silently replaced.
func (o Options) Validate() error {
	if o.Dimensions < 0 {
		return fmt.Errorf("graphdim: Dimensions must be >= 0 (0 = default 200), got %d", o.Dimensions)
	}
	// Negated comparison so NaN (for which every comparison is false)
	// is rejected too.
	if !(o.Tau >= 0 && o.Tau <= 1) {
		return fmt.Errorf("graphdim: Tau must be in (0, 1] (0 = default 0.05), got %v", o.Tau)
	}
	if o.MaxPatternEdges < 0 {
		return fmt.Errorf("graphdim: MaxPatternEdges must be >= 0 (0 = default 6), got %d", o.MaxPatternEdges)
	}
	if o.MaxCandidates < 0 {
		return fmt.Errorf("graphdim: MaxCandidates must be >= 0 (0 = unlimited), got %d", o.MaxCandidates)
	}
	if o.Metric != Delta1 && o.Metric != Delta2 {
		return fmt.Errorf("graphdim: unknown metric %d", int(o.Metric))
	}
	if o.Algorithm != DSPM && o.Algorithm != DSPMap {
		return fmt.Errorf("graphdim: unknown algorithm %d", int(o.Algorithm))
	}
	if o.PartitionSize < 0 {
		return fmt.Errorf("graphdim: PartitionSize must be >= 0 (0 = default max(20, n/20)), got %d", o.PartitionSize)
	}
	if o.MCSBudget < 0 {
		return fmt.Errorf("graphdim: MCSBudget must be >= 0 (0 = default 200000), got %d", o.MCSBudget)
	}
	if o.Iterations < 0 {
		return fmt.Errorf("graphdim: Iterations must be >= 0 (0 = default 30), got %d", o.Iterations)
	}
	return nil
}

func (o Options) withDefaults(n int) Options {
	if o.Dimensions == 0 {
		o.Dimensions = 200
	}
	if o.Tau == 0 {
		o.Tau = 0.05
	}
	if o.MaxPatternEdges == 0 {
		o.MaxPatternEdges = 6
	}
	if o.MCSBudget == 0 {
		o.MCSBudget = 200000
	}
	if o.PartitionSize == 0 {
		o.PartitionSize = n / 20
		if o.PartitionSize < 20 {
			o.PartitionSize = 20
		}
	}
	o.Workers = pool.DefaultWorkers(o.Workers)
	return o
}

// snapshot is the immutable state a query reads: the database graphs,
// their binary vectors over the index dimensions, and the tombstone set.
// Updates (Add/Remove) never mutate a published snapshot — they copy,
// then atomically swap — so any number of readers proceed lock-free while
// writers are serialized by Index.mu.
type snapshot struct {
	// db and vectors always span every id slot, but a snapshot served
	// from a mapped segment keeps nil placeholders below seg's size:
	// vectors live packed in the mapping (the block below), and graph
	// payloads are faulted in on demand through graph/graphAt. Ids added
	// after the segment was written (WAL replay, Add) overlay as ordinary
	// heap values. Heap-mode snapshots (seg == nil) have no nils.
	db        []*Graph
	vectors   []*vecspace.BitVector
	dead      []bool
	deadCount int
	// seg, when non-nil, is the mapped segment the base of this snapshot
	// is served from — shared, with its decoded-graph cache, across every
	// snapshot descended from the same open.
	seg *segSource
	// post holds the per-dimension posting lists and ones buckets over
	// vectors — the candidate-pruning accelerator internal/posting
	// implements. It always covers exactly the ids of vectors
	// (tombstoned included; the scan filters those), and like the rest
	// of the snapshot it is immutable to readers: Add extends it via
	// posting.Append under the writer lock.
	post *posting.Index
	// labels holds the per-label inverted lists over db — the pushdown
	// accelerator for declarative label filters (internal/pipeline).
	// Built lazily by the first filtered query that needs it
	// (labelIndex), because building it reads every graph — which on a
	// mapped snapshot would fault in the whole corpus at open. Once
	// built it is carried copy-on-write like post: Add extends it under
	// the writer lock, an unbuilt nil just stays lazy.
	labels atomic.Pointer[posting.LabelIndex]
	// baseN is how many of the graphs were part of the database the
	// dimension selection (Build) or persisted file saw; ids >= baseN
	// entered through Add. baseDead counts the tombstoned ids below
	// baseN. StaleRatio derives from both.
	baseN    int
	baseDead int
	// block caches the SoA form of vectors the batched scan kernel
	// streams (vecspace.Block). It is built lazily by the first scan
	// that needs it — soaBlock — and carried copy-on-write through
	// Add/Remove like post and labels: Add extends an already-built
	// block via Block.Append under the writer lock, Remove shares it
	// unchanged (tombstones are filtered by alive, not block events).
	// A snapshot whose block was never demanded swaps nil forward and
	// the next scan packs from scratch.
	block atomic.Pointer[vecspace.Block]
}

// soaBlock returns the snapshot's SoA scan block, packing the vectors
// on first demand. Racing first readers may each pack; the content is
// deterministic and CompareAndSwap publishes exactly one.
func (s *snapshot) soaBlock(p int) *vecspace.Block {
	if b := s.block.Load(); b != nil {
		return b
	}
	b := vecspace.Pack(s.vectors, p)
	if s.block.CompareAndSwap(nil, b) {
		return b
	}
	return s.block.Load()
}

// alive adapts the snapshot's tombstones plus an optional caller
// predicate into the scan filter the query engines take. Predicates
// resolve graphs through graph(), so on a mapped snapshot a predicate
// faults in only the payloads of ids that survive the tombstone check.
func (s *snapshot) alive(pred func(id int, g *Graph) bool) func(int) bool {
	if s.deadCount == 0 && pred == nil {
		return nil
	}
	return func(id int) bool {
		return !s.dead[id] && (pred == nil || pred(id, s.graph(id)))
	}
}

// graph returns graph id, faulting it from the mapped segment on first
// demand. It is the infallible accessor for paths whose signatures
// cannot carry an error (predicates, accessors): a payload that cannot
// be decoded — possible only when the segment file was corrupted after
// its checkpoint, since open validates the trailer — panics with a
// descriptive message rather than returning nil into user code. The
// engines use graphAt and surface the error instead.
func (s *snapshot) graph(id int) *Graph {
	if g := s.db[id]; g != nil || s.seg == nil {
		return g
	}
	g, err := s.seg.graphAt(id)
	if err != nil {
		panic(fmt.Sprintf("graphdim: %v", err))
	}
	return g
}

// graphAt is graph with the decode error surfaced — the form the
// verified and exact engines thread through topk.GraphAt so a corrupt
// mapped payload fails the query, not the process.
func (s *snapshot) graphAt(id int) (*Graph, error) {
	if g := s.db[id]; g != nil || s.seg == nil {
		return g, nil
	}
	return s.seg.graphAt(id)
}

// vectorAt returns id's vector, unpacking it from the SoA block when the
// snapshot serves vectors from a mapped segment (the block is always
// materialized there — it IS the mapping).
func (s *snapshot) vectorAt(id int) *vecspace.BitVector {
	if v := s.vectors[id]; v != nil {
		return v
	}
	return s.block.Load().Vector(id)
}

// labelIndex returns the label pushdown index, building it on first
// demand. The build reads every graph — on a mapped snapshot this is
// the one operation that faults in the whole corpus, which is why it is
// deferred to the first query with a label filter rather than done at
// open. Racing builders may duplicate work; CompareAndSwap publishes
// exactly one, and Add keeps extending whichever one won.
func (s *snapshot) labelIndex() *posting.LabelIndex {
	if l := s.labels.Load(); l != nil {
		return l
	}
	gs := s.db
	if s.seg != nil {
		gs = make([]*Graph, len(s.db))
		for i := range gs {
			gs[i] = s.graph(i)
		}
	}
	l := posting.LabelsFromGraphs(gs)
	if s.labels.CompareAndSwap(nil, l) {
		return l
	}
	return s.labels.Load()
}

// Index is a built graph-dimension index over a database: the selected
// subgraph dimensions, the database graphs, and their binary vectors. It
// answers top-k similarity queries with a feature-matching step (VF2)
// plus a scan of the vector space, optionally re-ranked by exact MCS
// verification (see Search).
//
// An Index is safe for any number of concurrent readers and writers
// without external locking: queries and accessors read an immutable
// snapshot, and Add/Remove publish a new snapshot atomically
// (copy-on-write), so long-running scans keep seeing the state they
// started on. The dimension set is fixed at Build time and never changes;
// only the database below it grows and shrinks.
type Index struct {
	// mapper holds the dimension set, compiled for query mapping; the
	// shards of a collection with structurally equal dimension sets
	// share one (see shareMappers).
	mapper  *vecspace.Mapper
	weights []float64
	metric  Metric
	mcsOpt  mcs.Options
	workers int // batch fan-out bound; always >= 1

	mu   sync.Mutex // serializes Add/Remove snapshot swaps
	snap atomic.Pointer[snapshot]
	// gen counts committed mutations: Add and Remove bump it once, after
	// publishing their snapshot and before returning. Generation-keyed
	// caches use it as a fence — see Generation.
	gen atomic.Uint64
}

func newIndex(mapper *vecspace.Mapper, weights []float64, metric Metric, mcsOpt mcs.Options, workers int, snap *snapshot) *Index {
	ix := &Index{
		mapper:  mapper,
		weights: weights,
		metric:  metric,
		mcsOpt:  mcsOpt,
		workers: workers,
	}
	if snap.post == nil {
		snap.post = posting.FromVectors(snap.vectors, mapper.Dim())
	}
	ix.snap.Store(snap)
	return ix
}

// Build mines frequent subgraphs from db, selects the dimension set with
// DSPM or DSPMap, and maps the database into the resulting space. It is
// BuildContext with a background context.
func Build(db []*Graph, opt Options) (*Index, error) {
	return BuildContext(context.Background(), db, opt)
}

// BuildContext is Build with cancellation: every stage of the offline
// pipeline (mining, the pairwise MCS matrix, the DSPM/DSPMap dimension
// computation, vector materialization) checks ctx and a cancelled build
// returns (nil, ctx.Err()) promptly instead of running to completion.
func BuildContext(ctx context.Context, db []*Graph, opt Options) (*Index, error) {
	if len(db) < 2 {
		return nil, fmt.Errorf("graphdim: need at least 2 graphs, got %d", len(db))
	}
	for i, g := range db {
		if g == nil {
			return nil, fmt.Errorf("graphdim: nil graph at index %d", i)
		}
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(len(db))
	progress := opt.Progress
	report := func(stage BuildStage, done, total int) {
		if progress != nil {
			progress(stage, done, total)
		}
	}

	report(StageMining, 0, 0)
	feats, err := gspan.MineContext(ctx, db, gspan.Options{
		MinSupport:  gspan.MinSupportRatio(opt.Tau, len(db)),
		MaxEdges:    opt.MaxPatternEdges,
		MaxFeatures: opt.MaxCandidates,
		Workers:     opt.Workers,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("graphdim: mining candidates: %w", err)
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("graphdim: no frequent subgraphs at tau=%v", opt.Tau)
	}
	report(StageMining, len(feats), len(feats))

	idx := vecspace.BuildIndex(len(db), feats)
	p := opt.Dimensions
	if p > idx.P {
		p = idx.P
	}

	mcsOpt := mcs.Options{MaxNodes: opt.MCSBudget}
	var res *core.Result
	switch opt.Algorithm {
	case DSPM:
		report(StageMatrix, 0, len(db))
		delta, err := opt.Metric.MatrixContext(ctx, db, mcsOpt, opt.Workers, func(done, total int) {
			report(StageMatrix, done, total)
		})
		if err != nil {
			return nil, err
		}
		iters := opt.Iterations
		if iters == 0 {
			iters = core.DefaultMaxIter
		}
		report(StageDSPM, 0, iters)
		res, err = core.DSPMContext(ctx, idx, delta, core.Config{
			P:       p,
			MaxIter: opt.Iterations,
			OnIteration: func(k int, _ float64) {
				report(StageDSPM, k, iters)
			},
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("graphdim: dimension computation: %w", err)
		}
		// iters was the cap; the run may converge earlier. Close the
		// stage with the iterations actually executed so done == total.
		report(StageDSPM, res.Iterations, res.Iterations)
	case DSPMap:
		dis := func(i, j int) float64 {
			return opt.Metric.DissimilarityBudget(db[i], db[j], mcsOpt)
		}
		report(StageDSPM, 0, 0)
		res, err = core.DSPMapContext(ctx, idx, dis, core.MapConfig{
			Core: core.Config{P: p, MaxIter: opt.Iterations},
			B:    opt.PartitionSize,
			Seed: opt.Seed,
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("graphdim: dimension computation: %w", err)
		}
		report(StageDSPM, 1, 1)
	}

	features := make([]*Graph, len(res.Selected))
	weights := make([]float64, len(res.Selected))
	for i, r := range res.Selected {
		features[i] = feats[r].Graph
		weights[i] = res.C[r]
	}
	sub := idx.Subindex(res.Selected)
	report(StageVectors, 0, sub.N)
	vectors := make([]*vecspace.BitVector, sub.N)
	if err := pool.ForContext(ctx, opt.Workers, sub.N, func(i int) {
		vectors[i] = sub.Vector(i)
	}); err != nil {
		return nil, err
	}
	report(StageVectors, sub.N, sub.N)

	return newIndex(vecspace.NewMapper(features), weights, opt.Metric, mcsOpt, opt.Workers, &snapshot{
		db:      db,
		vectors: vectors,
		dead:    make([]bool, len(db)),
		baseN:   len(db),
	}), nil
}

// Dimensions returns the selected subgraph dimensions, most informative
// first.
func (ix *Index) Dimensions() []*Graph { return ix.mapper.Features() }

// Weights returns the DSPM weight of each dimension, aligned with
// Dimensions.
func (ix *Index) Weights() []float64 { return ix.weights }

// Size returns the number of live (searchable) graphs: every id ever
// assigned, minus the graphs tombstoned by Remove.
func (ix *Index) Size() int {
	s := ix.snap.Load()
	return len(s.db) - s.deadCount
}

// TotalGraphs returns the number of id slots — live graphs plus
// tombstones. Ids are stable for the lifetime of an index (and across
// persistence), so valid ids are exactly [0, TotalGraphs()).
func (ix *Index) TotalGraphs() int { return len(ix.snap.Load().db) }

// Graph returns the graph with id i. Removed graphs remain addressable so
// historical results can still be resolved; use IsRemoved to check. On a
// memory-mapped index the payload is decoded from the segment on first
// access.
func (ix *Index) Graph(i int) *Graph { return ix.snap.Load().graph(i) }

// IsRemoved reports whether id i has been tombstoned by Remove.
func (ix *Index) IsRemoved(i int) bool { return ix.snap.Load().dead[i] }

// Generation returns a monotonic counter of committed mutations: it
// starts at 0 and moves (by at least one) after every Add or Remove
// publishes and before that call returns. Two equal Generation reads
// with an operation between them therefore guarantee the operation saw
// every mutation committed before the first read — the fence the
// query-result cache keys on (see CacheOptions). The counter is not
// persisted; a loaded index starts at 0 again.
func (ix *Index) Generation() uint64 { return ix.gen.Load() }

// Result is one top-k answer.
type Result struct {
	// ID is the database id of the matched graph.
	ID int
	// Distance is the score the engine ranked by: the normalized
	// Euclidean distance in the mapped space for EngineMapped (0 =
	// identical feature profile), the MCS dissimilarity for
	// EngineVerified and EngineExact.
	Distance float64
}

// TopK answers a top-k similarity query in the mapped space.
//
// Deprecated: TopK is the v1 entry point, kept so existing callers
// compile. Use Search, which adds engine selection, cancellation, and
// richer results.
func (ix *Index) TopK(q *Graph, k int) ([]Result, error) {
	res, err := ix.Search(context.Background(), q, SearchOptions{K: k})
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// TopKBatch answers many top-k queries at once. Result i corresponds to
// queries[i].
//
// Deprecated: TopKBatch is the v1 entry point, kept so existing callers
// compile. Use SearchBatch.
func (ix *Index) TopKBatch(queries []*Graph, k int) ([][]Result, error) {
	batch, err := ix.SearchBatch(context.Background(), queries, SearchOptions{K: k})
	if err != nil {
		return nil, err
	}
	out := make([][]Result, len(batch))
	for i, res := range batch {
		out[i] = res.Results
	}
	return out, nil
}

// TopKExact answers the query with the exact MCS-based engine — orders of
// magnitude slower; intended for ground-truth comparisons.
//
// Deprecated: TopKExact is the v1 entry point, kept so existing callers
// compile. Use Search with Engine: EngineExact.
func (ix *Index) TopKExact(q *Graph, k int) ([]Result, error) {
	res, err := ix.Search(context.Background(), q, SearchOptions{K: k, Engine: EngineExact})
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

func (ix *Index) queryWorkers() int {
	if ix.workers > 0 {
		return ix.workers
	}
	return pool.DefaultWorkers(0)
}

// Dissimilarity computes the exact metric value δ(a, b) — exposed for
// applications that verify or re-rank candidates.
func (ix *Index) Dissimilarity(a, b *Graph) float64 {
	return ix.metric.DissimilarityBudget(a, b, ix.mcsOpt)
}

// Contains reports whether pattern is subgraph-isomorphic to target —
// the containment primitive the mapping is built on.
func Contains(target, pattern *Graph) bool {
	return subiso.Contains(target, pattern)
}
