package graphdim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pool"
	"repro/internal/posting"
	"repro/internal/segment"
	"repro/internal/vecspace"
)

// The on-disk index has four formats. The current checkpoint layout is
// v4 — the mmap-able segment format of internal/segment (magic
// "GDIMIDX4"), written by Index.writeSegment and documented there;
// ReadIndex loads it onto the heap, and the store's shard opener serves
// it mapped in place. The three formats below are what WriteTo still
// writes (v3) and what legacy files look like:
//
// v1 (legacy, read-only): a JSON document embedding graphs in the text
// format and vectors as set-bit lists — grep-able, but ~10× the size of
// v2 and decoded only after buffering the whole file.
//
// v2 (legacy, read-only): a streaming binary format. After the 8-byte
// magic "GDIMIDX2", the payload is
//
//	metric      1 byte (0 = delta1, 1 = delta2)
//	mcsBudget   uvarint
//	p           uvarint — number of dimensions
//	p ×         weight (float64 bits, little-endian) + feature graph
//	            (binary codec of internal/graph)
//	total       uvarint — id slots, live + tombstoned
//	baseN       uvarint — slots predating the last Build (StaleRatio)
//	total ×     database graph (binary codec)
//	⌈total/8⌉   tombstone bitmap, id i at byte i/8 bit i%8
//	total ×     ⌈p/8⌉-byte packed binary vector, dimension r at byte
//	            r/8 bit r%8
//	crc32       IEEE checksum of the payload, little-endian
//
// v3 (written by WriteTo): the v2 payload under the magic "GDIMIDX3"
// plus, between the vectors and the checksum, an optional posting-list
// section so query servers can skip the transpose on load:
//
//	present     1 byte (0 = absent, 1 = present)
//	p ×         uvarint count, then count × uvarint gap — dimension r's
//	            ascending posting list delta-encoded as id − prev with
//	            prev starting at −1, so every gap is >= 1
//
// The decoder cross-checks a present section against the vectors (every
// listed id must have the bit, and the total posting count must equal
// the vectors' total set-bit count), which proves the lists are exactly
// the vector transpose; files without the section — v3 with present=0,
// every v2 and v1 file — get their postings rebuilt in memory.
//
// All binary variants encode and decode stream graph-by-graph; nothing
// buffers the whole database. ReadIndex sniffs the magic to pick the
// decoder, so v1 and v2 files keep loading.

const (
	magicV2 = "GDIMIDX2"
	magicV3 = "GDIMIDX3"
	// maxFileElems bounds decoded counts so a corrupt length prefix
	// cannot force a huge allocation before the checksum is verified.
	// Shared with the graph codec so the two decoders of the stream
	// cannot drift.
	maxFileElems = graph.MaxBinaryElems
)

var crcTable = crc32.IEEETable

// indexFile is the legacy v1 JSON layout.
type indexFile struct {
	Version   int       `json:"version"`
	Metric    int       `json:"metric"`
	MCSBudget int64     `json:"mcs_budget"`
	Features  []string  `json:"features"`
	Weights   []float64 `json:"weights"`
	DB        []string  `json:"db"`
	Vectors   [][]int   `json:"vectors"` // set bit positions per graph
}

const indexFileVersion = 1

// WriteTo serializes the index in the v3 binary format: the selected
// dimensions and weights, every database graph (including tombstoned ids,
// so ids stay stable across a save/load), the tombstone bitmap, the
// packed binary vectors, and the per-dimension posting lists. The
// encoding streams through a buffered writer — memory use is independent
// of database size. It implements io.WriterTo.
//
// WriteTo reads one immutable snapshot, so it may run concurrently with
// queries and updates; updates racing the call are either fully included
// or fully excluded.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	return ix.writeBinary(w, true)
}

// writeToV2 emits the previous binary format — no postings section. It
// is kept (unexported) so tests can produce v2 fixtures and pin the
// rebuild-on-load path.
func (ix *Index) writeToV2(w io.Writer) (int64, error) {
	return ix.writeBinary(w, false)
}

func (ix *Index) writeBinary(w io.Writer, postings bool) (int64, error) {
	return ix.writeSnapshot(w, ix.snap.Load(), postings)
}

// writeSnapshot encodes one explicit (already captured) snapshot — the
// store's checkpoint path pins a snapshot under the writer lock and
// encodes it later, lock-free, while the index keeps moving.
func (ix *Index) writeSnapshot(w io.Writer, s *snapshot, postings bool) (int64, error) {
	magic := magicV3
	if !postings {
		magic = magicV2
	}
	cw := &countingWriter{w: w}
	if _, err := io.WriteString(cw, magic); err != nil {
		return cw.n, fmt.Errorf("graphdim: encode index: %w", err)
	}
	crc := &crcWriter{w: cw}
	bw := bufio.NewWriter(crc)

	enc := &v2Encoder{w: bw}
	enc.byte(byte(ix.metric))
	enc.uvarint(uint64(ix.mcsOpt.MaxNodes))
	enc.uvarint(uint64(ix.mapper.Dim()))
	for i, f := range ix.mapper.Features() {
		enc.float64(ix.weights[i])
		enc.graph(f)
	}
	enc.uvarint(uint64(len(s.db)))
	enc.uvarint(uint64(s.baseN))
	for i := range s.db {
		enc.graph(s.graph(i))
	}
	enc.bytes(packBools(s.dead))
	p := ix.mapper.Dim()
	for i := range s.vectors {
		enc.bytes(packWords(s.vectorAt(i).Words(), p))
	}
	if postings {
		enc.byte(1)
		for r := 0; r < p; r++ {
			l := s.post.List(r)
			enc.uvarint(uint64(len(l)))
			prev := int32(-1)
			for _, id := range l {
				enc.uvarint(uint64(id - prev))
				prev = id
			}
		}
	}
	if enc.err == nil {
		enc.err = bw.Flush()
	}
	if enc.err != nil {
		return cw.n, fmt.Errorf("graphdim: encode index: %w", enc.err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.sum)
	if _, err := cw.Write(sum[:]); err != nil {
		return cw.n, fmt.Errorf("graphdim: encode index: %w", err)
	}
	return cw.n, nil
}

// ReadIndex loads an index previously written with WriteTo or a store
// checkpoint — any format: the v4 segment layout (rehydrated onto the
// heap; open a Store to serve it mapped), the v3 binary layout, the
// legacy v2 binary layout (postings are rebuilt in memory), or a legacy
// v1 JSON file.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(magicV3))
	if err == nil && bytes.Equal(head, []byte(segment.Magic)) {
		return readIndexSegment(br)
	}
	if err == nil && bytes.Equal(head, []byte(magicV3)) {
		return readIndexBinary(br, true)
	}
	if err == nil && bytes.Equal(head, []byte(magicV2)) {
		return readIndexBinary(br, false)
	}
	// Not a binary format (or shorter than the magic): try legacy JSON.
	return readIndexV1(br)
}

func readIndexBinary(br *bufio.Reader, v3 bool) (*Index, error) {
	if _, err := br.Discard(len(magicV3)); err != nil {
		return nil, fmt.Errorf("graphdim: read index: %w", err)
	}
	dec := &v2Decoder{r: &crcReader{br: br}}

	metric := dec.byte()
	if dec.err == nil && metric > byte(Delta2) {
		return nil, fmt.Errorf("graphdim: corrupt index: unknown metric %d", metric)
	}
	budget := dec.uvarint()
	if dec.err == nil && budget > math.MaxInt64 {
		return nil, fmt.Errorf("graphdim: corrupt index: MCS budget %d overflows", budget)
	}
	p := dec.count("dimension count")
	features := make([]*Graph, 0, min(p, 1<<16))
	weights := make([]float64, 0, min(p, 1<<16))
	for i := 0; i < p; i++ {
		weights = append(weights, dec.float64())
		g := dec.graph()
		if dec.err != nil {
			return nil, fmt.Errorf("graphdim: corrupt index: feature %d: %w", i, dec.err)
		}
		features = append(features, g)
	}
	total := dec.count("graph count")
	baseN := dec.count("base count")
	if dec.err == nil && baseN > total {
		return nil, fmt.Errorf("graphdim: corrupt index: baseN %d > %d graphs", baseN, total)
	}
	db := make([]*Graph, 0, min(total, 1<<16))
	for i := 0; i < total; i++ {
		g := dec.graph()
		if dec.err != nil {
			return nil, fmt.Errorf("graphdim: corrupt index: graph %d: %w", i, dec.err)
		}
		db = append(db, g)
	}
	dead, deadCount, err := unpackBools(dec.bytes((total+7)/8), total)
	if err != nil {
		return nil, fmt.Errorf("graphdim: corrupt index: tombstones: %w", err)
	}
	baseDead := 0
	for i := 0; i < baseN; i++ {
		if dead[i] {
			baseDead++
		}
	}
	vectors := make([]*vecspace.BitVector, 0, min(total, 1<<16))
	nb := (p + 7) / 8
	for i := 0; i < total; i++ {
		words, err := unpackWords(dec.bytes(nb), p)
		if err != nil {
			return nil, fmt.Errorf("graphdim: corrupt index: vector %d: %w", i, err)
		}
		vectors = append(vectors, vecspace.BitVectorFromWords(p, words))
	}
	var post *posting.Index
	if v3 {
		post, err = decodePostings(dec, vectors, p, total)
		if err != nil {
			return nil, fmt.Errorf("graphdim: corrupt index: postings: %w", err)
		}
	}
	if dec.err != nil {
		return nil, fmt.Errorf("graphdim: corrupt index: %w", dec.err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("graphdim: corrupt index: checksum: %w", noEOF(err))
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != dec.r.sum {
		return nil, fmt.Errorf("graphdim: corrupt index: checksum mismatch (file %08x, computed %08x)", got, dec.r.sum)
	}

	// A nil post (v2 file, or v3 with the section absent) is rebuilt from
	// the vectors inside newIndex.
	return newIndex(vecspace.NewMapper(features), weights, Metric(metric), mcs.Options{MaxNodes: int64(budget)},
		pool.DefaultWorkers(0), &snapshot{
			db:        db,
			vectors:   vectors,
			dead:      dead,
			deadCount: deadCount,
			post:      post,
			baseN:     baseN,
			baseDead:  baseDead,
		}), nil
}

// decodePostings reads the v3 posting-list section and proves it is
// exactly the transpose of the decoded vectors: every listed id must be
// in range, strictly ascending (gap >= 1 by construction of the delta
// code), and carry the dimension's bit; and the section's total posting
// count must equal the vectors' total set-bit count — together that
// admits exactly one section per vector set. It returns (nil, nil) when
// the section is marked absent so the caller rebuilds in memory.
func decodePostings(dec *v2Decoder, vectors []*vecspace.BitVector, p, total int) (*posting.Index, error) {
	switch present := dec.byte(); {
	case dec.err != nil:
		return nil, dec.err
	case present == 0:
		return nil, nil
	case present != 1:
		return nil, fmt.Errorf("presence byte %d", present)
	}
	ones := make([]int32, total)
	sumOnes := 0
	for id, v := range vectors {
		o := v.Ones()
		ones[id] = int32(o)
		sumOnes += o
	}
	lists := make([][]int32, p)
	decoded := 0
	for r := 0; r < p; r++ {
		count := dec.count("posting count")
		if dec.err != nil {
			return nil, dec.err
		}
		if count > total {
			return nil, fmt.Errorf("dimension %d: %d postings for %d graphs", r, count, total)
		}
		if decoded += count; decoded > sumOnes {
			return nil, fmt.Errorf("posting count exceeds the vectors' %d set bits", sumOnes)
		}
		list := make([]int32, 0, count)
		prev := int64(-1)
		for j := 0; j < count; j++ {
			gap := dec.uvarint()
			if dec.err != nil {
				return nil, dec.err
			}
			// Bound the gap before the addition so a hostile uvarint can
			// neither overflow int64 nor index out of range.
			if gap == 0 || gap > uint64(total) {
				return nil, fmt.Errorf("dimension %d: gap %d after id %d (total %d)", r, gap, prev, total)
			}
			id := prev + int64(gap)
			if id >= int64(total) {
				return nil, fmt.Errorf("dimension %d: id %d after %d (total %d)", r, id, prev, total)
			}
			if !vectors[id].Get(r) {
				return nil, fmt.Errorf("dimension %d lists id %d, whose vector lacks the bit", r, id)
			}
			list = append(list, int32(id))
			prev = id
		}
		lists[r] = list
	}
	if decoded != sumOnes {
		return nil, fmt.Errorf("%d postings for %d set bits", decoded, sumOnes)
	}
	return posting.FromLists(p, total, lists, ones), nil
}

func readIndexV1(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graphdim: read index: %w", err)
	}
	var f indexFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("graphdim: decode index: %w", err)
	}
	if f.Version != indexFileVersion {
		return nil, fmt.Errorf("graphdim: unsupported index version %d", f.Version)
	}
	if len(f.Vectors) != len(f.DB) {
		return nil, fmt.Errorf("graphdim: corrupt index: %d vectors for %d graphs", len(f.Vectors), len(f.DB))
	}
	if len(f.Weights) != len(f.Features) {
		return nil, fmt.Errorf("graphdim: corrupt index: %d weights for %d features", len(f.Weights), len(f.Features))
	}
	if f.Metric < 0 || f.Metric > int(Delta2) {
		return nil, fmt.Errorf("graphdim: corrupt index: unknown metric %d", f.Metric)
	}
	var features, db []*Graph
	for i, s := range f.Features {
		g, err := parseOne(s)
		if err != nil {
			return nil, fmt.Errorf("graphdim: feature %d: %w", i, err)
		}
		features = append(features, g)
	}
	for i, s := range f.DB {
		g, err := parseOne(s)
		if err != nil {
			return nil, fmt.Errorf("graphdim: graph %d: %w", i, err)
		}
		db = append(db, g)
	}
	p := len(features)
	var vectors []*vecspace.BitVector
	for i, bits := range f.Vectors {
		v := vecspace.NewBitVector(p)
		for _, b := range bits {
			if b < 0 || b >= p {
				return nil, fmt.Errorf("graphdim: corrupt index: vector %d has bit %d outside [0,%d)", i, b, p)
			}
			v.Set(b)
		}
		vectors = append(vectors, v)
	}
	// v1 predates tombstones and incremental adds: everything is live and
	// part of the persisted build.
	return newIndex(vecspace.NewMapper(features), f.Weights, Metric(f.Metric), mcs.Options{MaxNodes: f.MCSBudget},
		pool.DefaultWorkers(0), &snapshot{
			db:      db,
			vectors: vectors,
			dead:    make([]bool, len(db)),
			baseN:   len(db),
		}), nil
}

// writeToV1 emits the legacy JSON format. It is kept (unexported) so
// tests can produce v1 fixtures and pin backward compatibility.
func (ix *Index) writeToV1(w io.Writer) error {
	s := ix.snap.Load()
	f := indexFile{
		Version:   indexFileVersion,
		Metric:    int(ix.metric),
		MCSBudget: ix.mcsOpt.MaxNodes,
		Weights:   ix.weights,
	}
	for _, g := range ix.mapper.Features() {
		f.Features = append(f.Features, g.String())
	}
	for i := range s.db {
		f.DB = append(f.DB, s.graph(i).String())
	}
	for i := range s.vectors {
		v := s.vectorAt(i)
		bits := []int{}
		for r := 0; r < v.Len(); r++ {
			if v.Get(r) {
				bits = append(bits, r)
			}
		}
		f.Vectors = append(f.Vectors, bits)
	}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("graphdim: encode index: %w", err)
	}
	_, err = w.Write(data)
	return err
}

func parseOne(s string) (*Graph, error) {
	gs, err := ReadGraphs(strings.NewReader(s))
	if err != nil {
		return nil, err
	}
	if len(gs) != 1 {
		return nil, fmt.Errorf("expected 1 graph, found %d", len(gs))
	}
	return gs[0], nil
}

// ---- v2 encoding plumbing ----

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// crcWriter forwards writes and maintains a running IEEE crc32 of them.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crcTable, p[:n])
	return n, err
}

// crcReader hashes exactly the bytes the decoder consumes — unlike
// hashing at the bufio layer, read-ahead never pollutes the checksum, so
// the trailing checksum bytes can be read unhashed from the underlying
// reader. It implements graph.ByteReader.
type crcReader struct {
	br  *bufio.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.sum = crc32.Update(c.sum, crcTable, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.sum = crc32.Update(c.sum, crcTable, []byte{b})
	}
	return b, err
}

// v2Encoder writes the payload primitives, latching the first error so
// call sites stay linear.
type v2Encoder struct {
	w   *bufio.Writer
	err error
}

func (e *v2Encoder) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

func (e *v2Encoder) bytes(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *v2Encoder) uvarint(x uint64) {
	var buf [binary.MaxVarintLen64]byte
	e.bytes(buf[:binary.PutUvarint(buf[:], x)])
}

func (e *v2Encoder) float64(f float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	e.bytes(buf[:])
}

func (e *v2Encoder) graph(g *Graph) {
	if e.err == nil {
		e.err = graph.WriteBinary(e.w, g)
	}
}

// v2Decoder reads the payload primitives with the same error latching.
type v2Decoder struct {
	r   *crcReader
	err error
}

func (d *v2Decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = noEOF(err)
	}
	return b
}

func (d *v2Decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = noEOF(err)
	}
	return x
}

// count decodes a uvarint that sizes an allocation, enforcing the
// anti-bomb limit.
func (d *v2Decoder) count(what string) int {
	x := d.uvarint()
	if d.err == nil && x > maxFileElems {
		d.err = fmt.Errorf("%s %d exceeds limit %d", what, x, maxFileElems)
	}
	return int(x)
}

func (d *v2Decoder) float64() float64 {
	var buf [8]byte
	d.read(buf[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

func (d *v2Decoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = noEOF(err)
	}
}

func (d *v2Decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	p := make([]byte, n)
	d.read(p)
	return p
}

func (d *v2Decoder) graph() *Graph {
	if d.err != nil {
		return nil
	}
	g, err := graph.ReadBinary(d.r)
	if err != nil {
		d.err = err
	}
	return g
}

// noEOF is graph.NoEOF, aliased locally so decoder call sites stay short.
func noEOF(err error) error { return graph.NoEOF(err) }

// packBools packs a bool slice LSB-first into ⌈n/8⌉ bytes.
func packBools(bs []bool) []byte {
	out := make([]byte, (len(bs)+7)/8)
	for i, b := range bs {
		if b {
			out[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

// unpackBools reverses packBools, rejecting set padding bits so the
// encoding stays canonical.
func unpackBools(p []byte, n int) ([]bool, int, error) {
	if p == nil {
		return nil, 0, io.ErrUnexpectedEOF
	}
	out := make([]bool, n)
	count := 0
	for i := 0; i < n; i++ {
		if p[i/8]&(1<<(uint(i)%8)) != 0 {
			out[i] = true
			count++
		}
	}
	for i := n; i < len(p)*8; i++ {
		if p[i/8]&(1<<(uint(i)%8)) != 0 {
			return nil, 0, fmt.Errorf("padding bit %d set", i)
		}
	}
	return out, count, nil
}

// packWords serializes the first p bits of a BitVector's words LSB-first
// into ⌈p/8⌉ bytes.
func packWords(words []uint64, p int) []byte {
	out := make([]byte, (p+7)/8)
	for i := range out {
		out[i] = byte(words[i/8] >> (8 * (uint(i) % 8)))
	}
	return out
}

// unpackWords reverses packWords, rejecting set bits at or beyond p.
func unpackWords(p []byte, bits int) ([]uint64, error) {
	if p == nil {
		return nil, io.ErrUnexpectedEOF
	}
	words := make([]uint64, (bits+63)/64)
	for i, b := range p {
		words[i/8] |= uint64(b) << (8 * (uint(i) % 8))
	}
	for i := bits; i < len(p)*8; i++ {
		if words[i/64]&(1<<(uint(i)%64)) != 0 {
			return nil, fmt.Errorf("bit %d outside [0,%d) set", i, bits)
		}
	}
	return words, nil
}
