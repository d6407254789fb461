package experiments

import (
	"time"

	"repro/internal/graph"
	"repro/internal/topk"
	"repro/internal/vecspace"
)

// Quality holds the three measures of Section 6 averaged over the query
// set, either absolute or relative to the benchmark.
type Quality struct {
	Precision  float64
	KendallTau float64
	RankDist   float64
}

// QueryTiming splits online query cost into the two parts the paper
// analyses in Exp-4: feature matching (VF2 per selected feature) and
// multidimensional search (the linear scan).
type QueryTiming struct {
	Match  time.Duration
	Search time.Duration
}

// Total returns end-to-end query latency.
func (q QueryTiming) Total() time.Duration { return q.Match + q.Search }

// selectionMapper compiles the engine's query mapper over the selected
// feature subset, in selection order. Build it once per selection and
// Map every query through it, so the matching time the experiments
// report is the engine's own.
func selectionMapper(ds *Dataset, sel []int) *vecspace.Mapper {
	fs := make([]*graph.Graph, len(sel))
	for pos, r := range sel {
		fs[pos] = ds.Features[r].Graph
	}
	return vecspace.NewMapper(fs)
}

// EvaluateSelection runs every query through the mapped space restricted
// to sel and returns the average absolute quality at top-k plus the mean
// per-query timing.
func EvaluateSelection(ds *Dataset, sel []int, k int) (Quality, QueryTiming) {
	dbVecs := SelectionVectors(ds, sel)
	mapper := selectionMapper(ds, sel)
	var q Quality
	var timing QueryTiming
	for qi, query := range ds.Queries {
		t0 := time.Now()
		qv := mapper.Map(query)
		t1 := time.Now()
		ranking := topk.Mapped(dbVecs, qv)
		t2 := time.Now()
		timing.Match += t1.Sub(t0)
		timing.Search += t2.Sub(t1)

		approx := ranking.TopK(k)
		exact := ds.ExactRankings[qi]
		q.Precision += topk.Precision(approx, exact, k)
		q.KendallTau += topk.KendallTau(approx, exact, k)
		q.RankDist += topk.InverseRankDistance(approx, exact, k)
	}
	nq := float64(len(ds.Queries))
	q.Precision /= nq
	q.KendallTau /= nq
	q.RankDist /= nq
	timing.Match /= time.Duration(len(ds.Queries))
	timing.Search /= time.Duration(len(ds.Queries))
	return q, timing
}

// BenchmarkQuality evaluates the fingerprint/Tanimoto engine against the
// exact rankings — the denominator of the paper's relative measures on
// the real dataset.
func BenchmarkQuality(ds *Dataset, k int) Quality {
	var q Quality
	for qi := range ds.Queries {
		approx := ds.FPRankings[qi].TopK(k)
		exact := ds.ExactRankings[qi]
		q.Precision += topk.Precision(approx, exact, k)
		q.KendallTau += topk.KendallTau(approx, exact, k)
		q.RankDist += topk.InverseRankDistance(approx, exact, k)
	}
	nq := float64(len(ds.Queries))
	q.Precision /= nq
	q.KendallTau /= nq
	q.RankDist /= nq
	return q
}

// RelativeTo divides q by the benchmark component-wise (the paper reports
// "the ratio of the value achieved by each algorithm to the value
// achieved by the fingerprint algorithm"). Zero benchmark components keep
// the absolute value.
func (q Quality) RelativeTo(bench Quality) Quality {
	div := func(a, b float64) float64 {
		if b == 0 {
			return a
		}
		return a / b
	}
	return Quality{
		Precision:  div(q.Precision, bench.Precision),
		KendallTau: div(q.KendallTau, bench.KendallTau),
		RankDist:   div(q.RankDist, bench.RankDist),
	}
}

// ExactQueryTiming measures the exact top-k engine (MCS per database
// graph) averaged over at most maxQueries queries — the "Exact" series of
// Figs. 7(b) and 9(b). The exact engine is orders of magnitude slower, so
// the sample is kept small.
func ExactQueryTiming(ds *Dataset, maxQueries int) time.Duration {
	if maxQueries > len(ds.Queries) {
		maxQueries = len(ds.Queries)
	}
	if maxQueries == 0 {
		return 0
	}
	start := time.Now()
	for qi := 0; qi < maxQueries; qi++ {
		topk.Exact(ds.DB, ds.Queries[qi], ds.Metric, ds.MCSOpt)
	}
	return time.Since(start) / time.Duration(maxQueries)
}
