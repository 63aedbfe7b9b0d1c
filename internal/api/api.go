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
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

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
	Name  string             `json:"name"`
	Kind  string             `json:"kind"` // video | text | user-profile | topic | document
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// maxSubmitBody bounds a POST /v1/jobs body; a larger one is answered 413 in
// the error envelope. The router tier applies the same bound before routing.
const maxSubmitBody = 1 << 20

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
// committed — and is what aiwaas-style billing charges.
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
}

// NewServer provisions the pool and wires the routes.
func NewServer(cfg PoolConfig) (*Server, error) {
	pool, err := NewPool(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{pool: pool, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/library", handleLibrary)
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
	// A draining (closed) pool rejects submissions, so report it unhealthy:
	// the router tier probes this endpoint to steer traffic to live nodes.
	if s.pool.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func handleLibrary(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf(
				"request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err))
		return
	}
	if req.MaxPaths < 0 || req.MaxPaths > maxRequestPaths {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"max_paths must be in [1, %d] (0 disables path replication)", maxRequestPaths))
		return
	}
	if req.SLOClass != "" {
		if !s.pool.cfg.SLO {
			writeError(w, http.StatusBadRequest, fmt.Errorf(
				"slo_class requires the daemon to run with SLO tiers (-slo)"))
			return
		}
		if _, ok := core.DefaultSLOClasses()[req.SLOClass]; !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf(
				"unknown slo_class %q (allowed: %s)", req.SLOClass, allowedSLOClasses))
			return
		}
	}
	job, err := req.ToJob()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	rec, err := s.pool.Submit(tenant, job, core.SubmitOptions{
		RelaxFloor: true, MaxPaths: req.MaxPaths, SLOClass: req.SLOClass,
	}, req.Timeline)
	if err != nil {
		switch core.ErrorCodeOf(err) {
		case core.CodeShedOverload:
			// Backpressure, not failure: the tenant's bounded queue is full
			// under overload. Retry-After tells well-behaved clients when to
			// come back; the settled job envelope carries the typed code.
			w.Header().Set("Retry-After", "1")
			writeTooMany(w, rec, err)
		case core.CodeBudgetExhausted:
			// Also 429 (the canonical quota answer), but without Retry-After:
			// backing off does not refill a spent budget.
			writeTooMany(w, rec, err)
		default:
			writeError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	if req.Wait {
		select {
		case <-rec.Done():
		case <-r.Context().Done():
			// Client gave up; the job keeps running and stays pollable.
			writeJSON(w, http.StatusAccepted, statusResponse(rec.snapshot()))
			return
		}
		st := rec.snapshot()
		if st.Status == core.JobFailed {
			writeJSON(w, http.StatusUnprocessableEntity, statusResponse(st))
			return
		}
		writeJSON(w, http.StatusOK, statusResponse(st))
		return
	}
	writeJSON(w, http.StatusAccepted, statusResponse(rec.snapshot()))
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, statusResponse(st))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, canceled, ok := s.pool.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if !canceled {
		writeJSON(w, http.StatusConflict, statusResponse(st))
		return
	}
	writeJSON(w, http.StatusOK, statusResponse(st))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.Stats())
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

// writeTooMany renders an SLO admission rejection (shed or budget): 429 with
// the settled job envelope when the pool returned a record, else the error.
func writeTooMany(w http.ResponseWriter, rec *jobRecord, err error) {
	if rec != nil {
		writeJSON(w, http.StatusTooManyRequests, statusResponse(rec.snapshot()))
		return
	}
	writeError(w, http.StatusTooManyRequests, err)
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Compact encoding: the daemon serves high request rates, and indented
	// output measurably inflates encode time and response bytes.
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
