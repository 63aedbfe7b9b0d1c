package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/workflow"
	"repro/internal/workload"
)

// transitionLog is a JobObserver that writes down what it is told.
type transitionLog struct {
	events   []string
	attempts []AttemptRecord
}

func (l *transitionLog) JobStarted(h *Handle) {
	l.events = append(l.events, "started:"+h.Status().String())
}

func (l *transitionLog) JobAttempt(_ *Handle, a AttemptRecord) {
	l.events = append(l.events, "attempt")
	l.attempts = append(l.attempts, a)
}

func (l *transitionLog) JobDone(h *Handle) {
	l.events = append(l.events, "done:"+h.Status().String())
}

// observerFuncs is the tests' closure-form JobObserver: each field that is set
// is told of its transition.
type observerFuncs struct {
	started, done func(*Handle)
	attempt       func(AttemptRecord)
}

func (o observerFuncs) JobStarted(h *Handle) {
	if o.started != nil {
		o.started(h)
	}
}

func (o observerFuncs) JobAttempt(_ *Handle, a AttemptRecord) {
	if o.attempt != nil {
		o.attempt(a)
	}
}

func (o observerFuncs) JobDone(h *Handle) {
	if o.done != nil {
		o.done(h)
	}
}

// withoutAttempts is the log's started / done skeleton.
func (l *transitionLog) withoutAttempts() string {
	var out []string
	for _, e := range l.events {
		if e != "attempt" {
			out = append(out, e)
		}
	}
	return strings.Join(out, " ")
}

// TestObserverSeesEachTransitionOnce: whatever way a job ends, its observer
// is told it started at most once (never for a job canceled in the queue),
// that it is done exactly once and last, and of every recorded attempt in
// order in between.
func TestObserverSeesEachTransitionOnce(t *testing.T) {
	opts := SubmitOptions{RelaxFloor: true}
	observed := func(t *testing.T, s *Scheduler, job workflow.Job) (*Handle, *transitionLog) {
		t.Helper()
		h, err := s.Submit("alice", job, opts)
		if err != nil {
			t.Fatal(err)
		}
		log := &transitionLog{}
		h.Observe(log)
		return h, log
	}
	expect := func(t *testing.T, log *transitionLog, want string) {
		t.Helper()
		if got := log.withoutAttempts(); got != want {
			t.Fatalf("observer saw %q, want %q", got, want)
		}
	}

	t.Run("done", func(t *testing.T) {
		se, s := schedTestbed(t, 2)
		_, log := observed(t, s, schedVideoJob())
		se.Run()
		expect(t, log, "started:running done:done")
		if len(log.attempts) != 0 {
			t.Fatalf("a clean run recorded attempts: %+v", log.attempts)
		}
	})

	t.Run("failed at launch", func(t *testing.T) {
		se, s := schedTestbed(t, 1)
		h, err := s.Submit("alice", workflow.Job{
			Description: "Do mysterious things",
			Inputs:      []workflow.Input{{Name: "x", Kind: workflow.InputText}},
			Constraint:  workflow.MinCost,
		}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		log := &transitionLog{}
		h.Observe(log)
		se.Run()
		expect(t, log, "started:running done:failed")
	})

	t.Run("canceled while queued", func(t *testing.T) {
		se, s := schedTestbed(t, 1)
		_, first := observed(t, s, schedVideoJob())
		h2, log := observed(t, s, schedVideoJob())
		se.RunUntil(1)
		if !h2.Cancel() || h2.Cancel() {
			t.Fatal("a queued job cancels once")
		}
		se.Run()
		expect(t, log, "done:canceled")
		expect(t, first, "started:running done:done")
	})

	t.Run("canceled while running", func(t *testing.T) {
		se, s := schedTestbed(t, 2)
		h, log := observed(t, s, schedVideoJob())
		se.RunUntil(5)
		if !h.Cancel() || h.Cancel() {
			t.Fatal("a running job cancels once")
		}
		se.Run()
		expect(t, log, "started:running done:canceled")
	})

	t.Run("deadline", func(t *testing.T) {
		se, s := schedWith(t, 2, Config{Recovery: &FaultPolicy{JobDeadlineS: 5, Seed: 5}})
		h, log := observed(t, s, schedVideoJob())
		se.Run()
		expect(t, log, "started:running done:failed")
		if code := ErrorCodeOf(h.Err()); code != CodeDeadlineExceeded {
			t.Fatalf("error code %q, want %q", code, CodeDeadlineExceeded)
		}
	})

	t.Run("SLO shed beside an admitted job", func(t *testing.T) {
		se, s := schedWith(t, 1, Config{SLO: &SLOConfig{TenantTiers: map[string]string{"alice": "bronze"}, QueueBound: 1}})
		_, log := observed(t, s, schedVideoJob())
		// A shed submission never becomes a handle, so there is nothing to
		// observe; the job holding the queue slot is unaffected by it.
		if h, err := s.Submit("alice", schedVideoJob(), opts); h != nil || ErrorCodeOf(err) != CodeShedOverload {
			t.Fatalf("expected a shed, got handle %v err %v", h, err)
		}
		se.Run()
		expect(t, log, "started:running done:done")
	})

	t.Run("attempts stream in order", func(t *testing.T) {
		se, s := schedWith(t, 2, Config{Recovery: &FaultPolicy{Seed: 5}})
		h, log := observed(t, s, schedVideoJob())
		injectEvery(se, s, workload.FaultEvent{Kind: workload.FaultCallError, Pick: 0.3}, 5, 35, 10)
		se.Run()
		expect(t, log, "started:running done:done")
		if len(log.attempts) == 0 || !reflect.DeepEqual(log.attempts, h.Attempts()) {
			t.Fatalf("observer saw attempts %+v, the handle recorded %+v", log.attempts, h.Attempts())
		}
		if first, last := log.events[0], log.events[len(log.events)-1]; first != "started:running" || last != "done:done" {
			t.Fatalf("attempts fell outside the job's run: %v", log.events)
		}
	})

	t.Run("the slot holds one observer", func(t *testing.T) {
		se, s := schedTestbed(t, 2)
		h, log := observed(t, s, schedVideoJob())
		se.Run()
		expect(t, log, "started:running done:done")
		// A second Observe is a bug, not a chain — even once the job is done.
		defer func() {
			if recover() == nil {
				t.Fatal("a second Observe did not panic")
			}
		}()
		h.Observe(log)
	})
}
