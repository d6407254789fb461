package graphdim

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vecspace"
)

// A collection splits its database across shards by hashing global ids, so
// every shard holds a near-uniform slice of the graphs and Add, Search,
// persistence, and compaction parallelize per shard. Each shard wraps its
// own *Index over local ids [0, n) plus the strictly ascending table
// translating local ids back to collection-global ids.
//
// Readers are lock-free: they load one shardState and work entirely off
// it. Writers (Add, Remove, the compaction swap) serialize on shard.mu and
// publish new state atomically, so a Search keeps serving the generation
// it started on even while compaction replaces the whole index underneath.

// placeID maps a global id to its shard. The hash is SplitMix64 — cheap,
// well-mixed, and fixed forever for a given manifest version: the
// placement of every persisted id must survive reload.
func placeID(id, shards int) int {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// shardState is one immutable generation of a shard: the index and the
// local→global id table. globals is strictly ascending — ids are placed
// and appended in increasing global order, and compaction preserves the
// order — which keeps per-shard tie-breaking (ascending local id)
// consistent with the collection-level tie-break (ascending global id).
type shardState struct {
	idx *Index
	// globals[local] is the collection-global id of the shard-local id.
	// It may momentarily run longer than the index (an Add publishes the
	// extended table before mapping lands, and rolls back on error);
	// translation is always guarded by the index's own extent.
	globals []int
}

// localOf returns the local id of global id g, or -1.
func (st *shardState) localOf(g int) int {
	i := sort.SearchInts(st.globals, g)
	if i < len(st.globals) && st.globals[i] == g && i < st.idx.TotalGraphs() {
		return i
	}
	return -1
}

type shard struct {
	mu    sync.Mutex // serializes writers: add, remove, the compaction swap
	state atomic.Pointer[shardState]

	// gen is the shard's generation: a monotonic counter bumped after
	// every committed mutation (add, remove) and every compaction swap —
	// always after the new state publishes and before the operation
	// returns. That ordering is the query cache's fence: once a write
	// returns to its caller, every later generation read observes the
	// bump, so a cached result keyed on the old generation vector can
	// never be served after the write is committed. (In the window
	// between publish and bump a concurrent reader may still hit the old
	// key — indistinguishable from a search that raced the write, hence
	// linearizable.)
	gen atomic.Uint64

	compacting  atomic.Bool  // one compaction at a time per shard
	compactions atomic.Int64 // completed compactions

	lastErrMu sync.Mutex
	lastErr   error // most recent compaction failure, cleared on success
}

// generation reads the shard's mutation counter.
func (sh *shard) generation() uint64 { return sh.gen.Load() }

func newShard(st *shardState) *shard {
	sh := &shard{}
	sh.state.Store(st)
	return sh
}

// add appends graphs with the given (ascending) global ids. The extended
// id table is published before the mapping runs so a racing reader can
// never observe an index entry its table does not cover; on error the
// table rolls back under the writer lock.
func (sh *shard) add(ctx context.Context, gs []*Graph, globals []int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.state.Load()
	next := &shardState{
		idx:     cur.idx,
		globals: append(append(make([]int, 0, len(cur.globals)+len(globals)), cur.globals...), globals...),
	}
	sh.state.Store(next)
	if _, err := cur.idx.AddContext(ctx, gs...); err != nil {
		sh.state.Store(cur)
		return err
	}
	sh.gen.Add(1)
	return nil
}

// remove tombstones the given global ids, all-or-nothing for this shard.
func (sh *shard) remove(globals []int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.state.Load()
	locals := make([]int, len(globals))
	for i, g := range globals {
		local := st.localOf(g)
		if local < 0 {
			return fmt.Errorf("graphdim: id %d not in store", g)
		}
		locals[i] = local
	}
	if err := st.idx.Remove(locals...); err != nil {
		return err
	}
	sh.gen.Add(1)
	return nil
}

// graph resolves a global id to its graph, alive or tombstoned.
func (sh *shard) graph(g int) (*Graph, bool) {
	st := sh.state.Load()
	local := st.localOf(g)
	if local < 0 {
		return nil, false
	}
	return st.idx.Graph(local), true
}

// shareMappers points every shard whose dimension list is structurally
// equal to an earlier shard's at that shard's mapper, so a collection
// whose shards were decoded separately (a store opened from disk) still
// maps each query once per distinct dimension set. It must run before
// the shards are published: it writes Index.mapper without
// synchronization.
func shareMappers(shards []*shard) {
	var distinct []*vecspace.Mapper
	for _, sh := range shards {
		ix := sh.state.Load().idx
		shared := false
		for _, m := range distinct {
			if m == ix.mapper || sameGraphs(m.Features(), ix.mapper.Features()) {
				ix.mapper, shared = m, true
				break
			}
		}
		if !shared {
			distinct = append(distinct, ix.mapper)
		}
	}
}

// sameGraphs reports whether two graph lists are equal element by
// element: same vertex labels in the same order and the same labeled
// edge set.
func sameGraphs(a, b []*Graph) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.N() != y.N() || x.M() != y.M() {
			return false
		}
		for v := 0; v < x.N(); v++ {
			if x.VertexLabel(v) != y.VertexLabel(v) {
				return false
			}
		}
		if !slices.Equal(x.Edges(), y.Edges()) {
			return false
		}
	}
	return true
}

// errShardTooSmall marks a shard compaction skipped because the live
// database is below Build's minimum; the shard keeps serving as-is.
var errShardTooSmall = fmt.Errorf("graphdim: shard too small to rebuild (need at least 2 live graphs)")

// compact rebuilds the shard off to the side with BuildContext — a fresh
// mining + dimension selection over the shard's live graphs — and
// atomically swaps the new index in. Readers keep serving the old
// generation throughout; writes that land during the (slow) rebuild are
// replayed onto the new index under the writer lock before the swap, so
// nothing is lost. The caller must hold the shard's compacting flag.
//
// The rebuild itself uses opt.Workers (compactions run one shard at a
// time, so the full bound is right); the rebuilt index's steady-state
// worker bound is then lowered to idxWorkers, the collection's per-shard
// share, so shard-internal fan-out keeps not multiplying with the shard
// count.
//
// On any error the shard is left exactly as it was.
func (sh *shard) compact(ctx context.Context, opt Options, idxWorkers int) error {
	// Snapshot the base generation. The lock is held only long enough to
	// read consistent (index, table) state, not for the rebuild.
	sh.mu.Lock()
	base := sh.state.Load()
	baseTotal := base.idx.TotalGraphs()
	baseDead := make([]bool, baseTotal)
	live := make([]*Graph, 0, baseTotal)
	liveGlobals := make([]int, 0, baseTotal)
	for i := 0; i < baseTotal; i++ {
		if base.idx.IsRemoved(i) {
			baseDead[i] = true
			continue
		}
		live = append(live, base.idx.Graph(i))
		liveGlobals = append(liveGlobals, base.globals[i])
	}
	sh.mu.Unlock()

	if len(live) < 2 {
		return errShardTooSmall
	}
	opt.Progress = nil // rebuilds run in the background; no progress sink
	next, err := BuildContext(ctx, live, opt)
	if err != nil {
		return err
	}
	if idxWorkers > 0 {
		next.workers = idxWorkers
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.state.Load() // same idx as base (only compaction replaces it), possibly grown
	newGlobals := liveGlobals

	// Replay graphs added while the rebuild ran.
	curTotal := cur.idx.TotalGraphs()
	var lateGraphs []*Graph
	var lateGlobals []int
	for i := baseTotal; i < curTotal; i++ {
		if cur.idx.IsRemoved(i) {
			continue
		}
		lateGraphs = append(lateGraphs, cur.idx.Graph(i))
		lateGlobals = append(lateGlobals, cur.globals[i])
	}
	if len(lateGraphs) > 0 {
		if _, err := next.AddContext(ctx, lateGraphs...); err != nil {
			return err
		}
		newGlobals = append(append(make([]int, 0, len(liveGlobals)+len(lateGlobals)), liveGlobals...), lateGlobals...)
	}

	// Replay removals of base-live graphs: their position in the rebuilt
	// index is their rank among the base-live ids.
	var removeLocals []int
	pos := 0
	for i := 0; i < baseTotal; i++ {
		if baseDead[i] {
			continue
		}
		if cur.idx.IsRemoved(i) {
			removeLocals = append(removeLocals, pos)
		}
		pos++
	}
	if len(removeLocals) > 0 {
		if err := next.Remove(removeLocals...); err != nil {
			return err
		}
	}

	sh.state.Store(&shardState{idx: next, globals: newGlobals})
	// The swap replaces the whole index (often with a re-selected
	// dimension space), so it must fence cached results like any
	// mutation.
	sh.gen.Add(1)
	sh.compactions.Add(1)
	return nil
}

// tryCompact runs compact if no other compaction of this shard is in
// flight, recording the outcome for stats. It reports whether a compaction
// ran to completion.
func (sh *shard) tryCompact(ctx context.Context, opt Options, idxWorkers int) (bool, error) {
	if !sh.compacting.CompareAndSwap(false, true) {
		return false, nil
	}
	defer sh.compacting.Store(false)
	err := sh.compact(ctx, opt, idxWorkers)
	// A too-small shard is a skip, not a failure: it neither clears nor
	// sets the sticky last-error the stats report.
	if err != errShardTooSmall {
		sh.lastErrMu.Lock()
		sh.lastErr = err
		sh.lastErrMu.Unlock()
	}
	return err == nil, err
}

// staleRatio exposes the shard index's stale ratio.
func (sh *shard) staleRatio() float64 { return sh.state.Load().idx.StaleRatio() }

// lastCompactionErr returns the most recent compaction failure, if any.
func (sh *shard) lastCompactionErr() error {
	sh.lastErrMu.Lock()
	defer sh.lastErrMu.Unlock()
	return sh.lastErr
}
