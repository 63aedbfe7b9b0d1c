package router

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strings"

	"repro/internal/api"
)

// noHealthyNodes is the router's own refusal: nothing live to route to.
var noHealthyNodes = api.Reply{
	Code: http.StatusServiceUnavailable,
	Err:  errors.New("router: no healthy nodes"),
}

// terminalStatus reports whether a wire status string is final.
func terminalStatus(s string) bool {
	return s == "done" || s == "failed" || s == "canceled"
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !rt.hasLiveNode() {
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleLibrary serves the (node-independent) agent library while any node
// is live, byte-identical to a single node.
func (rt *Router) handleLibrary(w http.ResponseWriter, r *http.Request) {
	if !rt.hasLiveNode() {
		noHealthyNodes.Write(w)
		return
	}
	api.HandleLibrary(w, r)
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

// hasLiveNode reports whether any node is healthy and not draining.
func (rt *Router) hasLiveNode() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, n := range rt.nodes {
		if n.healthy && !n.draining {
			return true
		}
	}
	return false
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The one decode of the request: a refused body needs no node, and an
	// accepted one is routed on its tenant and handed to the node as is.
	req := new(api.JobRequest) // a live job's entry keeps it for a reroute
	if refused, ok := api.DecodeJobRequest(w, r, req); !ok {
		refused.Write(w)
		return
	}
	rt.mu.Lock()
	rt.routedSubmits++
	rt.mu.Unlock()
	rp, n := rt.routeSubmit(r.Context(), req)
	if n == nil {
		noHealthyNodes.Write(w)
		return
	}
	if rp.Job.ID != "" {
		rt.mu.Lock()
		rt.registerLocked(n.name, req, rp.Job)
		rt.mu.Unlock()
	}
	rp.Write(w)
}

// routeSubmit picks the tenant's node (ring walk over live nodes) and submits
// to it, re-picking when a node rejects because it began draining between
// the pick and the call. A nil node means no live node was found.
func (rt *Router) routeSubmit(ctx context.Context, req *api.JobRequest) (api.Reply, *node) {
	var last api.Reply
	var lastNode *node
	for attempt := 0; attempt < 3; attempt++ {
		rt.mu.Lock()
		name, ok := rt.ring.NodeForWhere(req.Tenant, func(nm string) bool {
			m := rt.nodes[nm]
			return m != nil && m.healthy && !m.draining
		})
		if !ok {
			rt.mu.Unlock()
			break
		}
		n := rt.nodes[name]
		// First sight of a tenant: record its ring owner so later
		// membership changes can account exactly which tenants moved.
		if _, seen := rt.tenants[req.Tenant]; !seen {
			if owner, ok := rt.ring.NodeFor(req.Tenant); ok {
				rt.tenants[req.Tenant] = owner
			}
		}
		rt.mu.Unlock()
		rp := n.srv.Submit(ctx, *req)
		if rp.Code != http.StatusServiceUnavailable {
			return rp, n
		}
		// The node started draining under us; try its successor.
		last, lastNode = rp, n
	}
	return last, lastNode
}

func (rt *Router) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, n, final := rt.resolve(id, &rt.routedReads)
	switch {
	case final != nil:
		final.Write(w)
	case n != nil:
		rp := n.srv.Status(e.id)
		if rp.Code == http.StatusOK && terminalStatus(rp.Job.Status) {
			rt.settle(e, nil)
		}
		rp.Write(w)
	default:
		rt.probe(id, (*api.Server).Status).Write(w)
	}
}

func (rt *Router) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, n, final := rt.resolve(id, &rt.routedCancels)
	switch {
	case final != nil:
		// The job's node left the cluster; it is terminal, so a cancel is
		// the same conflict a single node reports.
		rp := *final
		rp.Code = http.StatusConflict
		rp.Write(w)
	case n != nil:
		rp := n.srv.Cancel(e.id)
		if rp.Code == http.StatusOK || rp.Code == http.StatusConflict {
			rt.settle(e, nil)
		}
		rp.Write(w)
	default:
		rt.probe(id, (*api.Server).Cancel).Write(w)
	}
}

// resolve counts one routed read or cancel and follows the ID's alias chain
// (bounded) to its entry: final is set when the entry is answered from its
// cached reply, n when a member node holds the job, neither when the
// registry does not track the ID.
func (rt *Router) resolve(id string, counter *int64) (e *jobEntry, n *node, final *api.Reply) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	*counter++
	e = rt.jobs[id]
	for hops := 0; e != nil && e.aliasTo != ""; hops++ {
		if hops >= 8 {
			return nil, nil, nil
		}
		e = rt.jobs[e.aliasTo]
	}
	if e == nil {
		return nil, nil, nil
	}
	return e, rt.nodes[e.node], e.final
}

// settle marks an entry terminal and drops its retained request; a non-nil
// final becomes the entry's cached reply.
func (rt *Router) settle(e *jobEntry, final *api.Reply) {
	rt.mu.Lock()
	e.terminal = true
	e.req = nil
	if final != nil {
		e.final = final
	}
	rt.mu.Unlock()
}

// probe asks every node in name order about an un-tracked job and returns the
// first answer that is not a 404 (or the last 404, which carries the same
// "unknown job" body a single node produces).
func (rt *Router) probe(id string, call func(*api.Server, string) api.Reply) api.Reply {
	rt.mu.Lock()
	members := rt.membersLocked()
	rt.mu.Unlock()
	last := noHealthyNodes
	for _, n := range members {
		last = call(n.srv, id)
		if last.Code != http.StatusNotFound {
			break
		}
	}
	return last
}
