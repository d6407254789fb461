package main

import (
	"errors"
	"io"
	"net/http"
	"time"

	"repro/graphdim"
	"repro/internal/pipeline"
)

// stageErrorResponse is the 400 body for a pipeline rejected because of
// one stage: the prose error plus the stage's 0-based index and type
// name, so clients can point at the offending stage without parsing the
// message.
type stageErrorResponse struct {
	Error     string `json:"error"`
	Stage     int    `json:"stage"`
	StageName string `json:"stage_name"`
}

// handleQuery runs a composable pipeline (POST /v1/collections/{name}/
// query): the JSON body is a {"stages":[...]} document as accepted by
// pipeline.Parse and the gq CLI, and the answer is the pipeline.Result
// — rows, count or groups plus execution stats. Pipelines are reads:
// they honour ?min_freshness=, take a slot in the read admission lane
// and carry the freshness header on success. Malformed pipelines answer
// 400; when one stage is at fault the body names it (stage, stage_name).
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request, c *graphdim.Collection) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, `POST a JSON pipeline {"stages":[...]}`)
		return
	}
	if !s.checkFreshness(w, r, c) {
		return
	}
	gate := s.lanes(c.Name()).read
	if !s.admit(w, c.Name(), "read", gate) {
		return
	}
	defer gate.Leave()
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "reading pipeline: %v", err)
		return
	}
	p, err := pipeline.Parse(body)
	if err != nil {
		if !s.failStage(w, err) {
			s.fail(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := c.Query(ctx, p)
	if err != nil {
		if !s.failStage(w, err) {
			s.failQuery(w, r, ctx, err)
		}
		return
	}
	s.metrics.observePipeline(res.Stats)
	s.requests.Add(1)
	s.latencyUS.Add(time.Since(start).Microseconds())
	w.Header().Set(freshnessHeader, freshnessToken(c))
	writeJSON(w, http.StatusOK, res)
}

// failStage answers 400 naming the offending stage (stage, stage_name)
// when err is a *pipeline.StageError, and reports whether it did.
func (s *server) failStage(w http.ResponseWriter, err error) bool {
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		return false
	}
	s.errors.Add(1)
	writeJSON(w, http.StatusBadRequest, stageErrorResponse{Error: err.Error(), Stage: se.Index, StageName: se.Name})
	return true
}
