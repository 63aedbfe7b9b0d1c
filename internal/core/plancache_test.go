package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/agents"
	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/hardware"
	"repro/internal/optimizer"
	"repro/internal/profiles"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func cacheTestbed(t *testing.T) (*sim.Engine, *cluster.Cluster, *Runtime) {
	t.Helper()
	se := sim.NewEngine()
	cl := cluster.New(se, hardware.DefaultCatalog())
	cl.AddVM("vm0", hardware.NDv4SKUName, false)
	cl.AddVM("vm1", hardware.NDv4SKUName, false)
	rt, err := New(Config{Engine: se, Cluster: cl, Library: agents.DefaultLibrary()})
	if err != nil {
		t.Fatal(err)
	}
	return se, cl, rt
}

func cacheTestJob(c workflow.Constraint) workflow.Job {
	return workflow.Job{
		Description: "List objects shown in the video",
		Inputs:      []workflow.Input{workflow.VideoInput("a.mov", 120, 30, 8)},
		Tasks:       []string{"Extract frames from the video", "Detect objects in the frames"},
		Constraint:  c,
	}
}

// TestPlanCacheReusesIdenticalSubmissions: two structurally-identical jobs
// must plan once, and the cached plan must be decision-identical to a fresh
// search.
func TestPlanCacheReusesIdenticalSubmissions(t *testing.T) {
	se, _, rt := cacheTestbed(t)

	ex1, err := rt.Submit(cacheTestJob(workflow.MinCost), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if rt.PlanCacheHits() != 0 {
		t.Fatalf("first submission hit the cache (%d hits)", rt.PlanCacheHits())
	}

	ex2, err := rt.Submit(cacheTestJob(workflow.MinCost), SubmitOptions{RelaxFloor: true})
	if err != nil {
		t.Fatal(err)
	}
	se.Run()
	if rt.PlanCacheHits() != 1 {
		t.Fatalf("identical resubmission missed the cache (%d hits)", rt.PlanCacheHits())
	}
	if !reflect.DeepEqual(ex1.Plan().Decisions, ex2.Plan().Decisions) {
		t.Fatal("cached plan decisions differ from the original search")
	}

	// A different constraint is a different key.
	if _, err := rt.Submit(cacheTestJob(workflow.MinLatency), SubmitOptions{RelaxFloor: true}); err != nil {
		t.Fatal(err)
	}
	se.Run()
	if rt.PlanCacheHits() != 1 {
		t.Fatalf("different constraint served from cache (%d hits)", rt.PlanCacheHits())
	}
}

// TestPlanCacheInvalidatesOnCapacityChange: growing the cluster must bypass
// the cached plan (the capacity class is part of the key).
func TestPlanCacheInvalidatesOnCapacityChange(t *testing.T) {
	se, cl, rt := cacheTestbed(t)

	if _, err := rt.Submit(cacheTestJob(workflow.MinLatency), SubmitOptions{RelaxFloor: true}); err != nil {
		t.Fatal(err)
	}
	se.Run()

	cl.AddVM("vm2", hardware.NDv4SKUName, false)
	if _, err := rt.Submit(cacheTestJob(workflow.MinLatency), SubmitOptions{RelaxFloor: true}); err != nil {
		t.Fatal(err)
	}
	se.Run()
	if rt.PlanCacheHits() != 0 {
		t.Fatalf("capacity change did not invalidate the plan cache (%d hits)", rt.PlanCacheHits())
	}
}

// TestLivePlanKeyMatchesSnapshotKey: the key the runtime renders against the
// live cluster (capacity bytes memoized per CapacityGen) is byte for byte the
// key rendered from a snapshot, while allocations move the state generation
// and across a capacity change.
func TestLivePlanKeyMatchesSnapshotKey(t *testing.T) {
	se, cl, rt := cacheTestbed(t)
	job := cacheTestJob(workflow.MinLatency)
	opts := SubmitOptions{RelaxFloor: true, MaxPaths: 2}
	decomp, err := rt.decompose(job)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		live := string(rt.appendPlanKey(nil, decomp.Graph, planOptions(job, opts)))
		want := planCacheKey(decomp.Graph, cl.Snapshot(), planOptions(job, opts), rt.store.Gen(), rt.lib.Gen())
		if live != want {
			t.Fatalf("%s: live key %q, snapshot key %q", when, live, want)
		}
	}
	check("fresh")
	if _, err := rt.Submit(job, opts); err != nil {
		t.Fatal(err)
	}
	se.RunUntil(2)
	check("mid-run")
	cl.AddVM("vm2", hardware.NDv4SKUName, false)
	check("after AddVM")
	cl.VMs()[0].SetCPUCapacity(48)
	check("after a resize")
	se.Run()
	check("drained")
}

// TestPlanCacheInvalidatesOnProfileMutation: recalibrating a profile must
// force a fresh search (the store generation is part of the key).
func TestPlanCacheInvalidatesOnProfileMutation(t *testing.T) {
	se, _, rt := cacheTestbed(t)

	if _, err := rt.Submit(cacheTestJob(workflow.MinCost), SubmitOptions{RelaxFloor: true}); err != nil {
		t.Fatal(err)
	}
	se.Run()

	cfg := profiles.ResourceConfig{CPUCores: 4}
	p, ok := rt.Profiles().Get(agents.ImplOpenCV, cfg)
	if !ok {
		t.Fatalf("no %s profile for %v", agents.ImplOpenCV, cfg)
	}
	p.BaseS += 1
	if err := rt.Profiles().Put(p); err != nil {
		t.Fatal(err)
	}

	if _, err := rt.Submit(cacheTestJob(workflow.MinCost), SubmitOptions{RelaxFloor: true}); err != nil {
		t.Fatal(err)
	}
	se.Run()
	if rt.PlanCacheHits() != 0 {
		t.Fatalf("profile mutation did not invalidate the plan cache (%d hits)", rt.PlanCacheHits())
	}
}

// TestJobKeyInjective pins the encoding against a crafted collision: a float
// value must not absorb the next attribute's length prefix.
func TestJobKeyInjective(t *testing.T) {
	a := workflow.Job{
		Description: "d",
		Inputs: []workflow.Input{{Name: "i", Kind: workflow.InputDoc,
			Attrs: map[string]float64{"a": 1, "xyz=515:z23456789012345": 9}}},
	}
	b := workflow.Job{
		Description: "d",
		Inputs: []workflow.Input{{Name: "i", Kind: workflow.InputDoc,
			Attrs: map[string]float64{"a": 12, "xyz": 5, "z23456789012345": 9}}},
	}
	if jobKey(a, 0) == jobKey(b, 0) {
		t.Fatalf("distinct jobs share a decomposition-cache key: %q", jobKey(a, 0))
	}
	// Task-list boundaries must be injective too.
	c := workflow.Job{Description: "d", Tasks: []string{"a|t:b"}}
	d := workflow.Job{Description: "d", Tasks: []string{"a", "b"}}
	if jobKey(c, 0) == jobKey(d, 0) {
		t.Fatal("distinct task lists share a decomposition-cache key")
	}
}

// TestPlanCacheKeyInjective pins the DAG section of the plan-cache key
// against capability names crafted to mimic the separators.
func TestPlanCacheKeyInjective(t *testing.T) {
	mk := func(caps map[string]float64) *dag.Graph {
		g := dag.New()
		i := 0
		for c, w := range caps {
			g.MustAddNode(dag.Node{ID: dag.NodeID(fmt.Sprintf("n%d", i)), Capability: c, Work: w})
			i++
		}
		if err := g.Freeze(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	a := mk(map[string]float64{"x=1;y": 2})
	b := mk(map[string]float64{"x": 1, "y": 2})
	snap := cluster.Snapshot{}
	opts := optimizer.Options{}
	if planCacheKey(a, snap, opts, 0, 0) == planCacheKey(b, snap, opts, 0, 0) {
		t.Fatal("distinct DAGs share a plan-cache key")
	}
}
