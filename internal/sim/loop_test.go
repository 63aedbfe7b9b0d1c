package sim

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLoopExecutesPostedWorkAndEvents(t *testing.T) {
	eng := NewEngine()
	l := NewLoop(eng)
	go l.Run()

	var fired atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	ok := l.Post(func() {
		eng.After(1.5, func() {
			fired.Add(1)
			wg.Done()
		})
	})
	if !ok {
		t.Fatal("Post rejected before Close")
	}
	wg.Wait()
	l.Close()
	if fired.Load() != 1 {
		t.Fatalf("fired = %d, want 1", fired.Load())
	}
	if eng.Now() != 1.5 {
		t.Fatalf("now = %v, want 1.5", eng.Now())
	}
}

func TestLoopConcurrentPosters(t *testing.T) {
	eng := NewEngine()
	l := NewLoop(eng)
	go l.Run()

	const posters, perPoster = 8, 50
	var done atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				if !l.Post(func() {
					eng.After(0.1, func() { done.Add(1) })
				}) {
					t.Error("Post rejected mid-run")
					return
				}
			}
		}()
	}
	wg.Wait()
	l.Close() // drains every cascaded event before returning
	if got := done.Load(); got != posters*perPoster {
		t.Fatalf("events executed = %d, want %d", got, posters*perPoster)
	}
}

func TestLoopCloseDrainsAndRejectsNewPosts(t *testing.T) {
	eng := NewEngine()
	l := NewLoop(eng)
	go l.Run()

	var chain atomic.Int32
	l.Post(func() {
		// A three-deep event cascade: Close must wait for all of it.
		eng.After(1, func() {
			chain.Add(1)
			eng.After(1, func() {
				chain.Add(1)
				eng.After(1, func() { chain.Add(1) })
			})
		})
	})
	l.Close()
	if chain.Load() != 3 {
		t.Fatalf("cascade executed %d of 3 before Close returned", chain.Load())
	}
	if l.Post(func() {}) {
		t.Fatal("Post accepted after Close")
	}
	l.Close() // idempotent
}

func TestStepReentrancyPanics(t *testing.T) {
	eng := NewEngine()
	eng.After(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Step did not panic")
			}
		}()
		eng.Step()
	})
	eng.Run()
}

// TestLoopHoldKeepsDrainAlive: Close must not complete while a hold is
// outstanding — the held completion still lands (even though plain Posts are
// already rejected) and its cascaded events run before Run exits.
func TestLoopHoldKeepsDrainAlive(t *testing.T) {
	eng := NewEngine()
	l := NewLoop(eng)
	go l.Run()

	var hold *LoopHold
	took := make(chan struct{})
	l.Post(func() {
		hold = l.Hold() // on the loop goroutine, as the contract requires
		close(took)
	})
	<-took

	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a hold outstanding")
	default:
	}

	// Plain posts are rejected while draining; the held completion is not.
	var fired, cascaded atomic.Int32
	for l.Post(func() {}) { // wait until Close has latched the loop
	}
	hold.Post(func() {
		fired.Add(1)
		eng.After(1, func() { cascaded.Add(1) })
	})
	<-closed
	if fired.Load() != 1 || cascaded.Load() != 1 {
		t.Fatalf("fired=%d cascaded=%d, want 1/1 (held completion must drain)",
			fired.Load(), cascaded.Load())
	}
}

// TestLoopHoldRelease: an abandoned hold unblocks drain without posting.
func TestLoopHoldRelease(t *testing.T) {
	eng := NewEngine()
	l := NewLoop(eng)
	go l.Run()

	var hold *LoopHold
	took := make(chan struct{})
	l.Post(func() { hold = l.Hold(); close(took) })
	<-took
	go hold.Release()
	l.Close()      // would deadlock if Release did not count down
	hold.Release() // idempotent after resolution
}

// TestLoopHoldDoublePostPanics: a hold is a promise of exactly one completion.
func TestLoopHoldDoublePostPanics(t *testing.T) {
	eng := NewEngine()
	l := NewLoop(eng)
	go l.Run()
	defer l.Close()

	var hold *LoopHold
	took := make(chan struct{})
	l.Post(func() { hold = l.Hold(); close(took) })
	<-took
	hold.Post(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Post on a resolved hold did not panic")
		}
	}()
	hold.Post(func() {})
}

// orderTask appends its label to a shared log when the loop runs it.
type orderTask struct {
	log   *[]string
	label string
}

func (o orderTask) Run() { *o.log = append(*o.log, o.label) }

// TestLoopTaskOrderAndClose: tasks and closures share one FIFO inbox, a post
// made from inside a running task lands in the next batch, the inbox
// alternates between two arrays instead of growing a fresh one per batch,
// Close waits for outstanding holds, and posts after Close are refused.
func TestLoopTaskOrderAndClose(t *testing.T) {
	eng := NewEngine()
	l := NewLoop(eng)
	batch := 0
	l.SetTick(func() { batch++ })

	// Everything posted before Run starts is one batch. log and batchOf are
	// only touched on the loop goroutine until Close returns.
	var log []string
	batchOf := map[string]int{}
	note := func(label string) func() {
		return func() {
			log = append(log, label)
			batchOf[label] = batch
		}
	}
	l.PostTask(orderTask{&log, "task 1"})
	l.Post(note("func 2"))
	l.Post(func() {
		note("func 3")()
		l.PostTask(orderTask{&log, "task 6, posted by func 3"})
		l.Post(note("func 7, posted by func 3"))
	})
	l.PostTask(orderTask{&log, "task 4"})
	l.Post(note("func 5"))
	if l.Posted() != 5 {
		t.Fatalf("posted = %d, want 5", l.Posted())
	}
	go l.Run()

	// One post per batch from here on: once both arrays exist, the inbox must
	// keep swapping between them.
	arrays := map[*Task]bool{}
	for i := 0; i < 72; i++ {
		ran := make(chan struct{})
		if !l.Post(func() { close(ran) }) {
			t.Fatal("Post rejected before Close")
		}
		<-ran
		l.mu.Lock()
		if i >= 8 {
			arrays[&l.inbox[:1][0]] = true
		}
		l.mu.Unlock()
	}
	if len(arrays) > 2 {
		t.Fatalf("the inbox went through %d backing arrays in 64 batches, want 2 alternating", len(arrays))
	}

	// A hold keeps a closing loop alive until its completion is delivered.
	holds := make(chan *LoopHold, 1)
	l.Post(func() { holds <- l.Hold() })
	hold := <-holds
	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	for {
		l.mu.Lock()
		closing := l.closed
		l.mu.Unlock()
		if closing {
			break
		}
		runtime.Gosched()
	}
	if l.Post(func() {}) || l.PostTask(orderTask{&log, "refused"}) {
		t.Fatal("a closing loop accepted a post")
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a hold outstanding")
	default:
	}
	hold.Post(note("held completion"))
	<-closed

	want := []string{
		"task 1", "func 2", "func 3", "task 4", "func 5",
		"task 6, posted by func 3", "func 7, posted by func 3", "held completion",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("ran %q\nwant %q", log, want)
	}
	if batchOf["func 5"] != batchOf["func 2"] || batchOf["func 7, posted by func 3"] != batchOf["func 3"]+1 {
		t.Fatalf("batches: %v — a post from inside a task belongs to the next batch", batchOf)
	}
}
