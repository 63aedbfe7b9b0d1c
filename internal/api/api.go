// Package api exposes the Murakkab runtime over HTTP — the service surface
// of the §5 AIWaaS vision, rebuilt as a long-lived, sharded serving daemon.
// Jobs are admitted asynchronously into a pool of shared runtimes (one
// sim-loop goroutine per shard, tenants hashed across shards), so concurrent
// submissions multiplex warm serving engines and reuse generation-checked
// plan/decomposition caches instead of provisioning a throwaway testbed per
// request.
//
// Endpoints:
//
//	GET    /healthz                   liveness
//	GET    /v1/library                the agent library (capabilities, schemas)
//	POST   /v1/jobs                   submit a job → 202 + job id ("wait":true blocks for the result)
//	GET    /v1/jobs/{id}              job status / result
//	DELETE /v1/jobs/{id}              cancel a queued or running job
//	GET    /v1/stats                  multiplexing, cache and utilization counters
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/agents"
	"repro/internal/core"
	"repro/internal/workflow"
)

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	// Tenant namespaces the job; tenants hash to runtime shards ("default"
	// when empty).
	Tenant      string         `json:"tenant,omitempty"`
	Description string         `json:"description"`
	Constraint  string         `json:"constraint"` // MIN_COST | MIN_LATENCY | MIN_POWER | MAX_QUALITY
	MinQuality  float64        `json:"min_quality,omitempty"`
	Tasks       []string       `json:"tasks,omitempty"`
	Inputs      []InputRequest `json:"inputs"`
	// MaxPaths enables execution-path replication under MAX_QUALITY.
	MaxPaths int `json:"max_paths,omitempty"`
	// SLOClass overrides the tenant's SLO tier for this job ("gold",
	// "silver", "bronze"). Rejected when the daemon runs without SLO tiers.
	SLOClass string `json:"slo_class,omitempty"`
	// Wait blocks the request until the job completes and returns the result
	// inline.
	Wait bool `json:"wait,omitempty"`
	// Timeline includes the rendered execution timeline in the result.
	// Off by default: it is a debugging artifact, and rendering plus
	// serializing it is measurable at serving rates.
	Timeline bool `json:"timeline,omitempty"`
}

// InputRequest is one typed job input.
type InputRequest struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // video | text | user-profile | topic | document
	// Attrs is read-only once decoded. DecodeJobRequest gives an input whose
	// attrs object is byte-identical to the previous one in the body that
	// input's map, and ToJob hands the maps on to workflow.Input as they are.
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// maxSubmitBody bounds a POST /v1/jobs body; a larger one is answered 413 in
// the error envelope.
const maxSubmitBody = 1 << 20

// maxPlanningText bounds len(description) + Σ len(tasks[i]), the text the
// planner prices its decomposition prompt by at ~4 characters per token: far
// below an engine's KV capacity (90,000 tokens), which a near-limit body used
// to overflow, panicking the shard loop.
const maxPlanningText = 64 << 10

// maxWaitHolders caps the wait:true requests one server holds open at once,
// each a parked goroutine and connection. One past it is answered as a holder
// whose context ended is: 202 with the pollable envelope, the job runs on.
const maxWaitHolders = 1024

// maxRequestPaths caps MAX_QUALITY execution-path replication per request:
// every LLM task replicates up to this factor on the tenant's shared shard,
// so an unbounded value would let one request monopolize it.
const maxRequestPaths = 8

// JobResponse is a finished job's result payload.
//
// CostUSD, GPUEnergyWh, CPUEnergyWh and the utilization means are
// cluster-wide quantities over the job's execution window: in shared mode
// the window covers everything the shard's cluster ran concurrently, so
// overlapping tenants each observe the shared total (summing cost_usd
// across jobs double-counts the rental). EstCostUSD is the per-job metering
// figure — the optimizer's estimate of the resources this job alone
// committed — and is what an SLO tier's tenant budget charges (tenant_slo's
// cost_spent_usd in /v1/stats).
type JobResponse struct {
	Name                 string            `json:"name"`
	MakespanS            float64           `json:"makespan_s"`
	GPUEnergyWh          float64           `json:"gpu_energy_wh"`
	CPUEnergyWh          float64           `json:"cpu_energy_wh"`
	CostUSD              float64           `json:"cost_usd"`
	EstCostUSD           float64           `json:"est_cost_usd"`
	MeanGPUUtil          float64           `json:"mean_gpu_util"`
	MeanCPUUtil          float64           `json:"mean_cpu_util"`
	Quality              float64           `json:"quality"`
	PlanningOverheadFrac float64           `json:"planning_overhead_frac"`
	TasksCompleted       int               `json:"tasks_completed"`
	Decisions            map[string]string `json:"decisions"`
	Timeline             string            `json:"timeline,omitempty"`
	Template             string            `json:"template"`
}

// JobStatusResponse is the async job envelope (POST 202 and GET /v1/jobs/{id}).
// ErrorCode is the stable machine-readable failure class — one of
// retries_exhausted, deadline_exceeded, window_compacted, canceled,
// task_failed, shed_overload, budget_exhausted, internal — while Error stays
// the human-readable chain.
type JobStatusResponse struct {
	ID            string        `json:"id"`
	Tenant        string        `json:"tenant"`
	Shard         int           `json:"shard"`
	Status        string        `json:"status"`
	QueueDelayS   float64       `json:"queue_delay_s"`
	SubmittedSimS float64       `json:"submitted_sim_s"`
	FinishedSimS  float64       `json:"finished_sim_s,omitempty"`
	Error         string        `json:"error,omitempty"`
	ErrorCode     string        `json:"error_code,omitempty"`
	Attempts      []AttemptJSON `json:"attempts,omitempty"`
	Result        *JobResponse  `json:"result,omitempty"`
}

// AttemptJSON is one recorded task failure in a job's attempt history.
type AttemptJSON struct {
	AtS            float64 `json:"at_s"`
	Task           string  `json:"task"`
	Capability     string  `json:"capability"`
	Implementation string  `json:"implementation"`
	Attempt        int     `json:"attempt"`
	BackoffS       float64 `json:"backoff_s,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// LibraryEntry describes one implementation in GET /v1/library.
type LibraryEntry struct {
	Name       string   `json:"name"`
	Capability string   `json:"capability"`
	Kind       string   `json:"kind"`
	ParamsB    float64  `json:"params_b"`
	Quality    float64  `json:"quality"`
	Args       []string `json:"args"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Server is the serving daemon: a runtime pool plus its HTTP surface. Close
// it to drain the shard loops.
type Server struct {
	pool *Pool
	mux  *http.ServeMux
	// holders counts the wait:true requests blocked in Submit right now.
	holders atomic.Int64
}

// NewServer provisions the pool and wires the routes.
func NewServer(cfg PoolConfig) (*Server, error) { return NewServerWith(cfg, core.Config{}) }

// NewServerWith is NewServer over shard runtimes built from base: the pool
// sets every exported field, so only the unexported state core's own tests set
// on a Config carries through (see runtimeConfig).
func NewServerWith(cfg PoolConfig, base core.Config) (*Server, error) {
	pool, err := newPool(cfg, base)
	if err != nil {
		return nil, err
	}
	s := &Server{pool: pool, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/library", HandleLibrary)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Pool exposes the runtime pool (for stats and tests).
func (s *Server) Pool() *Pool { return s.pool }

// Close drains the pool's shard loops.
func (s *Server) Close() { s.pool.Close() }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// A draining (closed) pool rejects submissions, so report it unhealthy.
	if s.pool.Closed() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// HandleLibrary serves GET /v1/library: the agent library is static, so the
// router tier serves it with this same handler.
func HandleLibrary(w http.ResponseWriter, r *http.Request) {
	lib := agents.DefaultLibrary()
	var out []LibraryEntry
	for _, c := range lib.Capabilities() {
		for _, im := range lib.ByCapability(c) {
			entry := LibraryEntry{
				Name:       im.Name,
				Capability: string(im.Capability),
				Kind:       string(im.Kind),
				ParamsB:    im.ParamsB,
				Quality:    im.Quality,
			}
			for _, a := range im.Args {
				suffix := ""
				if a.Required {
					suffix = "*"
				}
				entry.Args = append(entry.Args, a.Name+":"+a.Type+suffix)
			}
			out = append(out, entry)
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// Reply is a job endpoint's answer before it is written: the status code and
// either the job envelope or, when Err is set, the error envelope. The typed
// cores below (Submit, Status, Cancel) return one and the HTTP shells write
// it, so the router tier calls the same cores on its in-process nodes, reads
// the fields it routes on, and encodes once.
type Reply struct {
	Code int
	Job  JobStatusResponse
	Err  error
	// RetryAfter marks backpressure (a shed 429): the reply carries
	// Retry-After so well-behaved clients know when to come back.
	RetryAfter bool
}

// Write renders the reply in the compact wire encoding. The job envelope is
// rendered by hand (wire.go) into a pooled buffer before the header goes out,
// so an envelope JSON cannot carry is a 500 and not a 200 with an empty body.
func (rp Reply) Write(w http.ResponseWriter) {
	var wb *wireBuf
	if rp.Err == nil {
		wb = wireBufs.Get().(*wireBuf)
		defer wb.release()
		e := envelopeWriter{b: wb.b[:0]}
		e.envelope(&rp.Job, &wb.strs)
		wb.b = e.b
		if e.err != nil {
			rp = Reply{Code: http.StatusInternalServerError, Err: e.err}
		}
	}
	if rp.RetryAfter {
		w.Header().Set("Retry-After", "1")
	}
	if rp.Err != nil {
		WriteJSON(w, rp.Code, errorBody{Error: rp.Err.Error()})
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(rp.Code)
	_, _ = w.Write(wb.b) // as with WriteJSON, the header is out: nothing more to do
}

func jobReply(code int, st JobState) Reply {
	return Reply{Code: code, Job: statusResponse(st)}
}

// DecodeJobRequest decodes a POST /v1/jobs body into req, bounded at
// maxSubmitBody and strict about unknown fields. It reports false when the
// body was refused, with the 413 or 400 to write; that needs no pool, so the
// router tier answers it before routing. The body is read into a pooled
// buffer and parsed by hand (wire_decode.go) straight into req; whatever that
// parser declines is decoded again, from the same bytes, by encoding/json,
// which therefore stays the source of every error text.
func DecodeJobRequest(w http.ResponseWriter, r *http.Request, req *JobRequest) (Reply, bool) {
	wb := wireBufs.Get().(*wireBuf)
	defer wb.release()
	buf := bytes.NewBuffer(wb.b[:0])
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	body := buf.Bytes()
	wb.b = body
	*req = JobRequest{}
	if p := (jobParser{data: body, wb: wb}); p.request(req) {
		return Reply{}, true
	}
	if readErr == nil {
		readErr = io.EOF
	}
	// Into a fresh value: handing req itself to encoding/json would move every
	// caller's JobRequest to the heap, not just those this path decodes.
	decoded := new(JobRequest)
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(body), errReader{readErr}))
	dec.DisallowUnknownFields()
	if err := dec.Decode(decoded); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return Reply{Code: http.StatusRequestEntityTooLarge, Err: fmt.Errorf(
				"request body exceeds %d bytes", tooBig.Limit)}, false
		}
		return Reply{Code: http.StatusBadRequest, Err: fmt.Errorf("invalid JSON: %w", err)}, false
	}
	*req = *decoded
	return Reply{}, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if refused, ok := DecodeJobRequest(w, r, &req); !ok {
		refused.Write(w)
		return
	}
	s.Submit(r.Context(), req).Write(w)
}

// Submit validates a decoded request, admits it and, for "wait":true, blocks
// until the job settles or ctx ends (the job then keeps running and stays
// pollable).
func (s *Server) Submit(ctx context.Context, req JobRequest) Reply {
	if req.MaxPaths < 0 || req.MaxPaths > maxRequestPaths {
		return Reply{Code: http.StatusBadRequest, Err: fmt.Errorf(
			"max_paths must be in [1, %d] (0 disables path replication)", maxRequestPaths)}
	}
	if req.SLOClass != "" {
		if !s.pool.cfg.SLO {
			return Reply{Code: http.StatusBadRequest, Err: fmt.Errorf(
				"slo_class requires the daemon to run with SLO tiers (-slo)")}
		}
		if _, ok := core.DefaultSLOClasses()[req.SLOClass]; !ok {
			return Reply{Code: http.StatusBadRequest, Err: fmt.Errorf(
				"unknown slo_class %q (allowed: %s)", req.SLOClass, allowedSLOClasses)}
		}
	}
	planningText := len(req.Description)
	for _, t := range req.Tasks {
		planningText += len(t)
	}
	if planningText > maxPlanningText {
		return Reply{Code: http.StatusBadRequest, Err: fmt.Errorf(
			"description and tasks hold %d bytes, the limit is %d bytes", planningText, maxPlanningText)}
	}
	job, err := req.ToJob()
	if err != nil {
		return Reply{Code: http.StatusBadRequest, Err: err}
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	hold := req.Wait && s.holders.Add(1) <= maxWaitHolders
	if req.Wait {
		defer s.holders.Add(-1)
	}
	rec, err := s.pool.Submit(tenant, job, core.SubmitOptions{
		RelaxFloor: true, MaxPaths: req.MaxPaths, SLOClass: req.SLOClass,
	}, req.Timeline, hold)
	if err != nil {
		code := core.ErrorCodeOf(err)
		if code != core.CodeShedOverload && code != core.CodeBudgetExhausted {
			return Reply{Code: http.StatusServiceUnavailable, Err: err}
		}
		// An SLO admission rejection: 429 with the settled job envelope (the
		// typed code rides in it) when the pool returned a record. Shed is
		// backpressure — the tenant's bounded queue is full — so it carries
		// Retry-After; a spent budget does not, backing off does not refill it.
		rp := Reply{Code: http.StatusTooManyRequests, Err: err}
		if rec != nil {
			rp = jobReply(http.StatusTooManyRequests, rec.snapshot())
		}
		rp.RetryAfter = code == core.CodeShedOverload
		return rp
	}
	if !hold || !rec.wait(ctx) {
		// Not held, or the client gave up: the job keeps running, pollable.
		return jobReply(http.StatusAccepted, rec.snapshot())
	}
	st := rec.snapshot()
	if st.Status == core.JobFailed {
		return jobReply(http.StatusUnprocessableEntity, st)
	}
	return jobReply(http.StatusOK, st)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.Status(r.PathValue("id")).Write(w)
}

// Status answers GET /v1/jobs/{id}: the job envelope, or 404.
func (s *Server) Status(id string) Reply {
	st, ok := s.pool.Get(id)
	if !ok {
		return unknownJob(id)
	}
	return jobReply(http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.Cancel(r.PathValue("id")).Write(w)
}

// Cancel answers DELETE /v1/jobs/{id}: 200 with the post-cancel envelope,
// 409 when the job was already terminal, or 404.
func (s *Server) Cancel(id string) Reply {
	st, canceled, ok := s.pool.Cancel(id)
	if !ok {
		return unknownJob(id)
	}
	if !canceled {
		return jobReply(http.StatusConflict, st)
	}
	return jobReply(http.StatusOK, st)
}

func unknownJob(id string) Reply {
	return Reply{Code: http.StatusNotFound, Err: fmt.Errorf("unknown job %q", id)}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.pool.Stats())
}

func statusResponse(st JobState) JobStatusResponse {
	out := JobStatusResponse{
		ID:            st.ID,
		Tenant:        st.Tenant,
		Shard:         st.Shard,
		Status:        st.Status.String(),
		QueueDelayS:   st.QueueDelayS,
		SubmittedSimS: st.SubmittedSimS,
		FinishedSimS:  st.FinishedSimS,
		Error:         st.Error,
		ErrorCode:     st.ErrorCode,
		Result:        st.Result,
	}
	for _, a := range st.Attempts {
		out.Attempts = append(out.Attempts, AttemptJSON{
			AtS:            a.AtS,
			Task:           a.Task,
			Capability:     a.Capability,
			Implementation: a.Implementation,
			Attempt:        a.Attempt,
			BackoffS:       a.BackoffS,
			Error:          a.Err,
		})
	}
	return out
}

// allowedConstraints and allowedKinds gate request validation up front, so
// malformed submissions fail with 400 and the permitted values instead of
// surfacing as runtime errors mid-admission.
var allowedConstraints = "MIN_COST, MIN_LATENCY, MIN_POWER, MAX_QUALITY"

// allowedSLOClasses lists the built-in SLO tiers for validation errors.
var allowedSLOClasses = "bronze, gold, silver"

var allowedKindOrder = []workflow.InputKind{
	workflow.InputVideo, workflow.InputText, workflow.InputUser,
	workflow.InputTopic, workflow.InputDoc,
}

var allowedKinds = func() map[workflow.InputKind]bool {
	m := make(map[workflow.InputKind]bool, len(allowedKindOrder))
	for _, k := range allowedKindOrder {
		m[k] = true
	}
	return m
}()

func allowedKindList() string {
	out := make([]string, len(allowedKindOrder))
	for i, k := range allowedKindOrder {
		out[i] = string(k)
	}
	return strings.Join(out, ", ")
}

// ToJob validates the request and maps it onto the workflow schema.
func (req JobRequest) ToJob() (workflow.Job, error) {
	var c workflow.Constraint
	switch strings.ToUpper(req.Constraint) {
	case "MIN_COST", "":
		c = workflow.MinCost
	case "MIN_LATENCY":
		c = workflow.MinLatency
	case "MIN_POWER":
		c = workflow.MinPower
	case "MAX_QUALITY":
		c = workflow.MaxQuality
	default:
		return workflow.Job{}, fmt.Errorf("unknown constraint %q (allowed: %s)",
			req.Constraint, allowedConstraints)
	}
	job := workflow.Job{
		Description: req.Description,
		Tasks:       req.Tasks,
		Constraint:  c,
		MinQuality:  req.MinQuality,
	}
	if len(req.Inputs) > 0 {
		job.Inputs = make([]workflow.Input, 0, len(req.Inputs))
	}
	for _, in := range req.Inputs {
		if !allowedKinds[workflow.InputKind(in.Kind)] {
			return workflow.Job{}, fmt.Errorf("unknown input kind %q for %q (allowed: %s)",
				in.Kind, in.Name, allowedKindList())
		}
		if in.Kind == string(workflow.InputVideo) && in.Attrs["scenes"] == 0 {
			// Convenience: duration_s + scene_len_s + frames_per_scene.
			dur := in.Attrs["duration_s"]
			sl := in.Attrs["scene_len_s"]
			fps := int(in.Attrs["frames_per_scene"])
			if dur <= 0 || sl <= 0 || fps <= 0 {
				return workflow.Job{}, fmt.Errorf(
					"video input %q needs duration_s, scene_len_s and frames_per_scene", in.Name)
			}
			job.Inputs = append(job.Inputs, workflow.VideoInput(in.Name, dur, sl, fps))
			continue
		}
		job.Inputs = append(job.Inputs, workflow.Input{
			Name:  in.Name,
			Kind:  workflow.InputKind(in.Kind),
			Attrs: in.Attrs,
		})
	}
	return job, job.Validate()
}

// jsonContentType is every response's Content-Type value. Header().Set makes
// a one-element slice per call; assigning this one shares it, so nothing may
// write into it (net/http only reads it, and Add would append to a copy).
var jsonContentType = []string{"application/json"}

// WriteJSON writes v as the response body in the daemon's wire encoding.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	// Compact encoding: the daemon serves high request rates, and indented
	// output measurably inflates encode time and response bytes.
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		_ = err
	}
}
