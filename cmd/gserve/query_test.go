package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/graphdim"
	"repro/internal/pipeline"
)

// graphSpecJSON renders a graph in the pipeline wire shape.
func graphSpecJSON(t *testing.T, g *graphdim.Graph) string {
	t.Helper()
	spec := pipeline.GraphSpec{Labels: make([]int, g.N()), Edges: [][3]int{}}
	for v := 0; v < g.N(); v++ {
		spec.Labels[v] = int(g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, [3]int{e.U, e.V, int(e.Label)})
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestQueryEndpoint runs search and scan pipelines over HTTP and checks
// each answer against Collection.Query on the same document: same rows,
// count and groups, plus the pushdown stats and the freshness header.
func TestQueryEndpoint(t *testing.T) {
	ts, coll := newTestServer(t, 3, 30*time.Second)
	q, ok := coll.Graph(4)
	if !ok {
		t.Fatal("Graph(4) missing")
	}
	spec := graphSpecJSON(t, q)
	url := ts.URL + "/v1/collections/default/query"
	for _, tc := range []struct {
		name, doc string
		pushed    bool
	}{
		{"search", fmt.Sprintf(`{"stages":[{"search":{"query":%s,"k":5}}]}`, spec), false},
		{"filter_search_topk", fmt.Sprintf(`{"stages":[
			{"filter":{"min_vertices":2,"vertex_labels":[{"label":%d,"min_count":1}]}},
			{"search":{"query":%s,"k":8,"engine":"mapped"}},
			{"topk":{"k":3}}]}`, q.VertexLabel(0), spec), true},
		{"verified", fmt.Sprintf(`{"stages":[{"search":{"query":%s,"k":4,"engine":"verified","verify_factor":2}}]}`, spec), false},
		{"count", `{"stages":[{"filter":{"min_edges":1}},{"count":{}}]}`, false},
		{"group_by", `{"stages":[{"group_by":{"key":"edge_label"}}]}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postQuery(t, url, tc.doc)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			if resp.Header.Get(freshnessHeader) == "" {
				t.Fatal("missing freshness header")
			}
			var got pipeline.Result
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("decode %s: %v", body, err)
			}
			p, err := pipeline.Parse([]byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			res, err := coll.Query(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip the library answer through JSON so both sides
			// carry exactly what the wire can.
			wb, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var want pipeline.Result
			if err := json.Unmarshal(wb, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Count, want.Count) ||
				!reflect.DeepEqual(got.Groups, want.Groups) {
				t.Fatalf("HTTP answer differs from Collection.Query:\n got %s\nwant %s", body, wb)
			}
			if len(got.Rows)+len(got.Groups) == 0 && got.Count == nil {
				t.Fatalf("empty answer: %s", body)
			}
			if tc.pushed && (got.Stats.PushedPredicates == 0 || got.Stats.FallbackPredicates == 0) {
				t.Fatalf("want both pushed and fallback predicates, got %+v", got.Stats)
			}
		})
	}
}

// TestQueryEndpointBadInput pins the error contract: every malformed
// pipeline is a JSON 400, and errors tied to one stage carry its index
// and type name.
func TestQueryEndpointBadInput(t *testing.T) {
	ts, coll := newTestServer(t, 2, 30*time.Second)
	q, _ := coll.Graph(1)
	spec := graphSpecJSON(t, q)
	for _, tc := range []struct {
		name      string
		method    string
		path      string
		body      string
		status    int
		stage     int    // -1: no stage fields expected
		stageName string // checked when stage >= 0
	}{
		{"get", http.MethodGet, "default/query", "", 405, -1, ""},
		{"empty body", "", "default/query", "", 400, -1, ""},
		{"not json", "", "default/query", "nope", 400, -1, ""},
		{"unknown top-level field", "", "default/query", `{"stages":[{"count":{}}],"x":1}`, 400, -1, ""},
		{"no stages", "", "default/query", `{"stages":[]}`, 400, -1, ""},
		{"unknown stage", "", "default/query", `{"stages":[{"count":{}},{"warp":{}}]}`, 400, 1, "warp"},
		{"two stage keys", "", "default/query", `{"stages":[{"count":{},"limit":{"n":1}}]}`, 400, 0, ""},
		{"stage not an object", "", "default/query", `{"stages":[3]}`, 400, 0, ""},
		{"unknown filter field", "", "default/query", `{"stages":[{"filter":{"bogus":1}}]}`, 400, 0, "filter"},
		{"out of order", "", "default/query", `{"stages":[{"count":{}},{"filter":{"min_edges":1}}]}`, 400, 1, "filter"},
		{"topk without search", "", "default/query", `{"stages":[{"filter":{"min_edges":1}},{"topk":{"k":3}}]}`, 400, 1, "topk"},
		{"search k zero", "", "default/query", fmt.Sprintf(`{"stages":[{"search":{"query":%s,"k":0}}]}`, spec), 400, 0, "search"},
		{"search bad engine", "", "default/query", fmt.Sprintf(`{"stages":[{"search":{"query":%s,"k":3,"engine":"warp"}}]}`, spec), 400, 0, "search"},
		{"search bad graph", "", "default/query", `{"stages":[{"search":{"query":{"labels":[0,1],"edges":[[0,5,0]]},"k":3}}]}`, 400, 0, "search"},
		{"dimension out of range", "", "default/query", `{"stages":[{"filter":{"dims_any":[100000]}},{"count":{}}]}`, 400, 0, "filter"},
		{"bad group_by key", "", "default/query", `{"stages":[{"group_by":{"key":"colour"}}]}`, 400, 0, "group_by"},
		{"bad min_freshness", "", "default/query?min_freshness=soon", `{"stages":[{"count":{}}]}`, 400, -1, ""},
		{"unknown collection", "", "nope/query", `{"stages":[{"count":{}}]}`, 404, -1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			req, err := http.NewRequest(method, ts.URL+"/v1/collections/"+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, b)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if msg, _ := body["error"].(string); msg == "" {
				t.Fatalf("no error message in %v", body)
			}
			stage, hasStage := body["stage"]
			if tc.stage < 0 {
				if hasStage {
					t.Fatalf("unexpected stage field in %v", body)
				}
				return
			}
			if !hasStage || stage.(float64) != float64(tc.stage) {
				t.Fatalf("stage = %v, want %d (%v)", stage, tc.stage, body)
			}
			if name, _ := body["stage_name"].(string); name != tc.stageName {
				t.Fatalf("stage_name = %q, want %q", name, tc.stageName)
			}
		})
	}
}
