package graphdim

// This file bridges the collection layer to internal/segment, the v4
// on-disk shard format: checkpoints stream a snapshot out as a segment
// (writeSegment), and opens serve a segment back either mapped — the
// tile section IS the scan block, graph payloads fault in lazily — or
// fully rehydrated onto the heap (indexFromSegment). segSource is the
// per-open shared state a mapped snapshot chain hangs onto: the reader
// plus a decode-once cache for faulted graphs.

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pool"
	"repro/internal/segment"
	"repro/internal/vecspace"
)

// segSource is the mapped segment a snapshot chain is served from. It is
// created once per open and shared — with its decoded-graph cache —
// across every snapshot descended from that open (Add/Remove carry it
// forward), so a graph payload is decoded at most once per process no
// matter how many snapshots alias the mapping.
type segSource struct {
	r      *segment.Reader
	graphs []atomic.Pointer[graph.Graph]
}

func newSegSource(r *segment.Reader) *segSource {
	return &segSource{r: r, graphs: make([]atomic.Pointer[graph.Graph], r.N())}
}

// graphAt returns graph id, decoding it from the mapping on first demand.
// Racing decoders may duplicate work; CompareAndSwap publishes exactly
// one so callers always see one identity per id.
func (ss *segSource) graphAt(id int) (*Graph, error) {
	if g := ss.graphs[id].Load(); g != nil {
		return g, nil
	}
	g, err := ss.r.GraphAt(id)
	if err != nil {
		return nil, err
	}
	if ss.graphs[id].CompareAndSwap(nil, g) {
		return g, nil
	}
	return ss.graphs[id].Load(), nil
}

// writeSegment streams snapshot s as a v4 segment. The tile section is
// written in exactly the layout the scan kernel consumes, so a later
// mapped open serves queries from the file bytes with zero rehydration.
// When s itself is served from a mapped segment, unmodified graph
// payloads are copied verbatim (graphs are immutable — no decode,
// re-encode round trip per checkpoint).
func (ix *Index) writeSegment(w io.Writer, s *snapshot) error {
	blk := s.soaBlock(ix.mapper.Dim())
	n := len(s.db)

	// Ones counts feed the per-zone min/max bounds and the posting
	// buckets; popcount them straight out of the tiles rather than
	// materializing a BitVector per id.
	ones := make([]int32, n)
	width, words := blk.Width(), blk.Words()
	for id := 0; id < n; id++ {
		tile := blk.Tile(id / width)
		j := id % width
		o := 0
		for k := 0; k < words; k++ {
			o += bits.OnesCount64(tile[k*width+j])
		}
		ones[id] = int32(o)
	}

	var buf bytes.Buffer
	graphBytes := func(i int) ([]byte, error) {
		if s.seg != nil && s.db[i] == nil {
			return s.seg.r.GraphBytes(i)
		}
		buf.Reset()
		if err := graph.WriteBinary(&buf, s.db[i]); err != nil {
			return nil, err
		}
		// Write collects the blobs before streaming them, so each call
		// must return bytes that survive the next Reset.
		return append([]byte(nil), buf.Bytes()...), nil
	}

	return segment.Write(w, segment.Payload{
		Meta: segment.Meta{
			Metric:    byte(ix.metric),
			MCSBudget: ix.mcsOpt.MaxNodes,
			Weights:   ix.weights,
			Features:  ix.mapper.Features(),
			BaseN:     s.baseN,
		},
		Block: blk,
		Dead:  s.dead,
		Graph: graphBytes,
		Ones:  ones,
		List:  s.post.List,
	})
}

// openShardIndex opens one shard file by path, dispatching on its magic:
// v4 segments honor the store's memory mode (mapped or rehydrated),
// anything else takes the legacy ReadIndex path (v3/v2 binary, v1 JSON)
// onto the heap.
func openShardIndex(path string, mode MemoryMode) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var head [len(segment.Magic)]byte
	_, rerr := io.ReadFull(f, head[:])
	if rerr == nil && string(head[:]) == segment.Magic {
		f.Close()
		return openSegmentIndex(path, mode)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	defer f.Close()
	return ReadIndex(f)
}

// openSegmentIndex opens a v4 segment file. Every mode except MemoryHeap
// asks for the mapping; on platforms without mmap support segment.Open
// degrades to reading the file into one heap buffer and the index still
// serves through the same lazy segment path — mode selects the serving
// strategy, never the file format.
func openSegmentIndex(path string, mode MemoryMode) (*Index, error) {
	r, err := segment.Open(path, segment.Options{Map: mode != MemoryHeap})
	if err != nil {
		return nil, err
	}
	ix, err := indexFromSegment(r, mode == MemoryHeap)
	if err != nil {
		r.Close()
		return nil, err
	}
	return ix, nil
}

// readIndexSegment is the io.Reader leg for v4 segments (generic
// ReadIndex callers — replication bootstrap pipes, tests): the bytes are
// already off disk, so it verifies the body checksum like a heap open
// and rehydrates fully.
func readIndexSegment(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graphdim: read index: %w", err)
	}
	sr, err := segment.NewReader(data, false, nil)
	if err != nil {
		return nil, err
	}
	if err := sr.VerifyBody(); err != nil {
		return nil, err
	}
	return indexFromSegment(sr, true)
}

// indexFromSegment builds an Index over an opened segment reader. With
// rehydrate false the snapshot keeps nil graph/vector placeholders and
// serves both through the mapping (the scan block aliases the tile
// section in place); with rehydrate true every payload is decoded onto
// the heap and the reader is only kept as the backing array owner.
func indexFromSegment(r *segment.Reader, rehydrate bool) (*Index, error) {
	m := r.Meta()
	if m.Metric > byte(Delta2) {
		return nil, fmt.Errorf("graphdim: corrupt segment: unknown metric %d", m.Metric)
	}
	if m.MCSBudget < 0 {
		return nil, fmt.Errorf("graphdim: corrupt segment: negative MCS budget %d", m.MCSBudget)
	}
	n := r.N()
	if m.BaseN < 0 || m.BaseN > n {
		return nil, fmt.Errorf("graphdim: corrupt segment: baseN %d outside [0,%d]", m.BaseN, n)
	}
	blk, err := r.Block()
	if err != nil {
		return nil, err
	}
	post, err := r.Postings()
	if err != nil {
		return nil, err
	}
	dead, deadCount := r.Dead()
	baseDead := 0
	for i := 0; i < m.BaseN; i++ {
		if dead[i] {
			baseDead++
		}
	}
	snap := &snapshot{
		db:        make([]*Graph, n),
		vectors:   make([]*vecspace.BitVector, n),
		dead:      dead,
		deadCount: deadCount,
		post:      post,
		baseN:     m.BaseN,
		baseDead:  baseDead,
	}
	if rehydrate {
		for i := 0; i < n; i++ {
			g, err := r.GraphAt(i)
			if err != nil {
				return nil, err
			}
			snap.db[i] = g
			snap.vectors[i] = blk.Vector(i)
		}
	} else {
		snap.seg = newSegSource(r)
	}
	snap.block.Store(blk)
	return newIndex(vecspace.NewMapper(m.Features), m.Weights, Metric(m.Metric),
		mcs.Options{MaxNodes: m.MCSBudget}, pool.DefaultWorkers(0), snap), nil
}
