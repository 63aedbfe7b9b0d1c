package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
)

// respBuf is a minimal in-memory http.ResponseWriter: the router forwards
// requests into node muxes and copies status, headers and body out verbatim,
// so a single-node cluster stays byte-identical to a bare api.Server.
type respBuf struct {
	code        int
	header      http.Header
	buf         bytes.Buffer
	wroteHeader bool
}

func newRespBuf() *respBuf {
	return &respBuf{code: http.StatusOK, header: make(http.Header)}
}

func (b *respBuf) Header() http.Header { return b.header }

func (b *respBuf) WriteHeader(code int) {
	if b.wroteHeader {
		return
	}
	b.code = code
	b.wroteHeader = true
}

func (b *respBuf) Write(p []byte) (int, error) {
	b.wroteHeader = true
	return b.buf.Write(p)
}

// copyTo replays the recorded response onto a real writer.
func (b *respBuf) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		w.Header()[k] = vs
	}
	w.WriteHeader(b.code)
	_, _ = w.Write(b.buf.Bytes())
}

// forward runs one synthetic request through a node's handler. target is the
// path (plus optional query); body may be nil.
func forward(h http.Handler, method, target string, body []byte) *respBuf {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		rb := newRespBuf()
		rb.code = http.StatusInternalServerError
		return rb
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rb := newRespBuf()
	h.ServeHTTP(rb, req)
	return rb
}

// writeJSON mirrors the api server's compact encoding (Encoder.Encode, so a
// trailing newline) for the router's own responses.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// maxSubmitBody bounds a POST /v1/jobs body before it is buffered for
// routing: the bound (and the 413 answer) a node applies to its own decode.
const maxSubmitBody = 1 << 20

// errorBody matches the api server's error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeRaw replays cached response bytes (already api-shaped JSON).
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// terminalStatus reports whether a wire status string is final.
func terminalStatus(s string) bool {
	return s == "done" || s == "failed" || s == "canceled"
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	up := 0
	for _, n := range rt.nodes {
		if n.healthy && !n.draining {
			up++
		}
	}
	rt.mu.Unlock()
	if up == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleForwardAny forwards node-independent reads (the library) to the
// first live node in name order — deterministic and byte-identical to a
// single node.
func (rt *Router) handleForwardAny(w http.ResponseWriter, r *http.Request) {
	n := rt.firstLiveNode()
	if n == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "router: no healthy nodes"})
		return
	}
	target := r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	forward(n.srv, r.Method, target, nil).copyTo(w)
}

// membersLocked returns every node in name order. Callers hold rt.mu.
func (rt *Router) membersLocked() []*node {
	members := make([]*node, 0, len(rt.nodes))
	for _, n := range rt.nodes {
		members = append(members, n)
	}
	slices.SortFunc(members, func(a, b *node) int { return strings.Compare(a.name, b.name) })
	return members
}

// firstLiveNode returns the healthy, non-draining node with the smallest
// name, or nil.
func (rt *Router) firstLiveNode() *node {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, n := range rt.membersLocked() {
		if n.healthy && !n.draining {
			return n
		}
	}
	return nil
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "router: reading request body: " + err.Error()})
		return
	}
	// Routing needs only the tenant; full decode (and its error surface)
	// stays the node's job so responses match a single node byte-for-byte.
	var meta struct {
		Tenant string `json:"tenant"`
	}
	_ = json.Unmarshal(body, &meta)
	rt.mu.Lock()
	rt.routedSubmits++
	rt.mu.Unlock()
	rb, n := rt.routeSubmit(meta.Tenant, body)
	if rb == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "router: no healthy nodes"})
		return
	}
	var jr struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if json.Unmarshal(rb.buf.Bytes(), &jr) == nil && jr.ID != "" {
		rt.mu.Lock()
		rt.registerLocked(jr.ID, n.name, meta.Tenant, body, jr.Status)
		rt.mu.Unlock()
	}
	rb.copyTo(w)
}

// routeSubmit picks the tenant's node (ring walk over live nodes) and
// forwards the submission, re-picking when a node rejects because it began
// draining between the pick and the forward.
func (rt *Router) routeSubmit(tenant string, body []byte) (*respBuf, *node) {
	var last *respBuf
	var lastNode *node
	for attempt := 0; attempt < 3; attempt++ {
		rt.mu.Lock()
		name, ok := rt.ring.NodeForWhere(tenant, func(nm string) bool {
			m := rt.nodes[nm]
			return m != nil && m.healthy && !m.draining
		})
		if !ok {
			rt.mu.Unlock()
			return last, lastNode
		}
		n := rt.nodes[name]
		// First sight of a tenant: record its ring owner so later
		// membership changes can account exactly which tenants moved.
		if _, seen := rt.tenants[tenant]; !seen {
			if owner, ok := rt.ring.NodeFor(tenant); ok {
				rt.tenants[tenant] = owner
			}
		}
		rt.mu.Unlock()
		rb := forward(n.srv, http.MethodPost, "/v1/jobs", body)
		if rb.code == http.StatusServiceUnavailable {
			// The node started draining under us; try its successor.
			last, lastNode = rb, n
			continue
		}
		return rb, n
	}
	return last, lastNode
}

func (rt *Router) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	rt.routedReads++
	e := rt.resolveLocked(id)
	var n *node
	var override []byte
	overrideCode := http.StatusOK
	if e != nil {
		if e.override != nil {
			override, overrideCode = e.override, e.overrideCode
		} else {
			n = rt.nodes[e.node]
		}
	}
	rt.mu.Unlock()
	if override != nil {
		writeRaw(w, overrideCode, override)
		return
	}
	if n != nil {
		rb := forward(n.srv, http.MethodGet, "/v1/jobs/"+e.id, nil)
		if rb.code == http.StatusOK {
			var jr struct {
				Status string `json:"status"`
			}
			if json.Unmarshal(rb.buf.Bytes(), &jr) == nil && terminalStatus(jr.Status) {
				rt.mu.Lock()
				e.terminal = true
				e.body = nil
				rt.mu.Unlock()
			}
		}
		rb.copyTo(w)
		return
	}
	rt.probe(w, http.MethodGet, "/v1/jobs/"+id)
}

func (rt *Router) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	rt.routedCancels++
	e := rt.resolveLocked(id)
	var n *node
	var override []byte
	if e != nil {
		if e.override != nil {
			// The job's node left the cluster; it is terminal, so a cancel
			// is the same conflict a single node reports.
			override = e.override
		} else {
			n = rt.nodes[e.node]
		}
	}
	rt.mu.Unlock()
	if override != nil {
		writeRaw(w, http.StatusConflict, override)
		return
	}
	if n != nil {
		rb := forward(n.srv, http.MethodDelete, "/v1/jobs/"+e.id, nil)
		if rb.code == http.StatusOK || rb.code == http.StatusConflict {
			rt.mu.Lock()
			e.terminal = true
			e.body = nil
			rt.mu.Unlock()
		}
		rb.copyTo(w)
		return
	}
	rt.probe(w, http.MethodDelete, "/v1/jobs/"+id)
}

// resolveLocked follows an ID's alias chain (bounded). Callers hold rt.mu.
func (rt *Router) resolveLocked(id string) *jobEntry {
	e := rt.jobs[id]
	for hops := 0; e != nil && e.aliasTo != ""; hops++ {
		if hops >= 8 {
			return nil
		}
		e = rt.jobs[e.aliasTo]
	}
	return e
}

// probe forwards an un-tracked job request to every node in name order and
// replays the first non-404 answer (or the last 404, which carries the same
// "unknown job" body a single node produces).
func (rt *Router) probe(w http.ResponseWriter, method, target string) {
	rt.mu.Lock()
	members := rt.membersLocked()
	rt.mu.Unlock()
	var last *respBuf
	for _, n := range members {
		rb := forward(n.srv, method, target, nil)
		if rb.code != http.StatusNotFound {
			rb.copyTo(w)
			return
		}
		last = rb
	}
	if last == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "router: no healthy nodes"})
		return
	}
	last.copyTo(w)
}
