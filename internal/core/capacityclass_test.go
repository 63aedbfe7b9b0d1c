package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/optimizer"
	"repro/internal/planner"
)

// dispatched is what one dispatch saw, read on the loop goroutine.
type dispatched struct {
	h        *Handle
	snap     cluster.Snapshot // what the search was handed
	live     cluster.Snapshot // the cluster's own snapshot at that moment
	stateGen uint64
}

// dispatch submits a never-seen job on the loop goroutine, reads the snapshot
// its search was dispatched with out of the singleflight table (the commit
// cannot run before the closure returns), then runs then — still ahead of the
// commit.
func dispatch(t *testing.T, s *Scheduler, i int, then func()) (d dispatched) {
	t.Helper()
	done := make(chan struct{})
	if !s.search.loop.Post(func() {
		defer close(done)
		var err error
		if d.h, err = s.Submit("alice", distinctJob(i), SubmitOptions{RelaxFloor: true, KeepEngines: true}); err != nil {
			t.Error(err)
			return
		}
		if len(s.search.inflight) != 1 {
			t.Errorf("job %d: %d searches in flight, want its own", i, len(s.search.inflight))
		}
		for _, task := range s.search.inflight {
			d.snap = task.snap
		}
		d.live, d.stateGen = s.rt.cl.Snapshot(), s.rt.cl.Gen()
		if then != nil {
			then()
		}
	}) {
		t.Fatal("loop closed")
	}
	<-done
	return d
}

func sameMap(a, b map[hardware.GPUType]int) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestDispatchCapturesCapacityClass: a search is dispatched against the
// capacity class, not a fresh cluster snapshot. Two dispatches with a whole
// job's allocations and releases between them — the state generation moved,
// CapacityGen did not — carry the same snapshot; a VM add and a preemption
// each replace it (the one already handed out keeps its totals: replaced,
// never mutated); and a search in flight across the change still conflicts
// at commit and re-plans inline.
func TestDispatchCapturesCapacityClass(t *testing.T) {
	cl, s, loop := loopTestbed(t, 2, 1)
	cl.AddVM("spot0", hardware.NDv4SKUName, true)

	d0 := dispatch(t, s, 100, nil)
	waitDone(t, loop, d0.h)
	d1 := dispatch(t, s, 101, nil)
	waitDone(t, loop, d1.h)
	if d1.stateGen == d0.stateGen {
		t.Fatal("a whole job ran without moving the cluster's state generation")
	}
	snap := d1.snap
	if snap.TotalGPUs == nil || !sameMap(d0.snap.TotalGPUs, snap.TotalGPUs) || d0.snap.TotalCPUCores != snap.TotalCPUCores {
		t.Fatalf("two dispatches at one CapacityGen carry different snapshots: %+v, %+v", d0.snap, snap)
	}
	if !reflect.DeepEqual(snap.TotalGPUs, d1.live.TotalGPUs) || snap.TotalCPUCores != d1.live.TotalCPUCores {
		t.Fatalf("capacity class %+v is not the live cluster's totals %+v", snap, d1.live)
	}
	if snap.Time != 0 || snap.FreeGPUs != nil || snap.FreeCPUCores != 0 || snap.SpotVMs != nil {
		t.Fatalf("capacity class carries point-in-time state: %+v", snap)
	}

	// A search in flight across a VM add keeps the class it was dispatched
	// with — replaced, not mutated — and conflicts at commit.
	gpus, cores := snap.TotalGPUs[hardware.GPUA100], snap.TotalCPUCores
	d2 := dispatch(t, s, 102, func() { cl.AddVM("late-vm", hardware.NDv4SKUName, false) })
	if !sameMap(d2.snap.TotalGPUs, snap.TotalGPUs) {
		t.Fatal("dispatch before the VM add did not carry the standing class")
	}
	waitDone(t, loop, d2.h)
	if d2.h.Status() != JobDone || d2.h.Err() != nil {
		t.Fatalf("job across the VM add: status %v err %v", d2.h.Status(), d2.h.Err())
	}
	if d2.snap.TotalGPUs[hardware.GPUA100] != gpus || d2.snap.TotalCPUCores != cores {
		t.Fatalf("the handed-out class was mutated: %+v, had %d GPUs / %d cores", d2.snap, gpus, cores)
	}
	d3 := dispatch(t, s, 103, func() { cl.PreemptVM("spot0") })
	if sameMap(d3.snap.TotalGPUs, snap.TotalGPUs) || d3.snap.TotalGPUs[hardware.GPUA100] <= gpus || d3.snap.TotalCPUCores <= cores {
		t.Fatalf("a VM add did not replace the class: %+v after %+v", d3.snap, snap)
	}
	waitDone(t, loop, d3.h)
	d4 := dispatch(t, s, 104, nil)
	if sameMap(d4.snap.TotalGPUs, d3.snap.TotalGPUs) {
		t.Fatal("a preemption did not replace the class")
	}
	waitDone(t, loop, d4.h)

	var st SchedulerStats
	statsDone := make(chan struct{})
	loop.Post(func() { st = s.Stats(); close(statsDone) })
	<-statsDone
	if st.PlanConflicts != 2 || st.PlanSearches != 5 || st.Completed != 5 {
		t.Fatalf("conflicts %d searches %d completed %d, want 2 (the add, the preemption) / 5 / 5",
			st.PlanConflicts, st.PlanSearches, st.Completed)
	}
}

type nopSearch struct{ id int } // sized, so each has its own address

func (*nopSearch) search(*planner.Planner, *optimizer.Optimizer) {}
func (*nopSearch) Run()                                          {}

// TestSearchQueueDrainsClean: the worker queue is a slice with a head index.
// Popping clears the slot and an emptied queue rewinds, so a drained pool
// keeps no task (job, snapshot, waiters) reachable and a push into the spare
// capacity allocates nothing — a queue popped by re-slicing crept along its
// array until every push after a drain allocated a fresh one-slot array.
func TestSearchQueueDrainsClean(t *testing.T) {
	ps := &planSearch{}
	ps.cond = sync.NewCond(&ps.mu)
	work := []searchWork{&nopSearch{1}, &nopSearch{2}, &nopSearch{3}}
	cycle := func() {
		for _, w := range work {
			ps.enqueue(w)
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		for i := 0; ps.queued() > 0; i++ {
			if got := ps.pop(); got != work[i] {
				t.Fatalf("pop %d is not the %d-th push", i, i)
			}
		}
	}
	cycle()
	if len(ps.queue) != 0 || ps.head != 0 {
		t.Fatalf("drained queue: len %d head %d, want 0 0", len(ps.queue), ps.head)
	}
	for i, w := range ps.queue[:cap(ps.queue)] {
		if w != nil {
			t.Fatalf("drained queue still holds a task in slot %d", i)
		}
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state enqueue + pop allocates %v, want 0", n)
	}
}
