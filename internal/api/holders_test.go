package api

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// TestWaitHoldersAreCapped: the server holds at most maxWaitHolders wait:true
// requests open. With the shard loops stalled, that many holders block; one
// more is answered at once as a holder whose context ended is — 202 and the
// pollable envelope, its job admitted like any other — and when the loops run
// again the first maxWaitHolders all get their 200s and the extra job finishes
// too.
func TestWaitHoldersAreCapped(t *testing.T) {
	s, err := NewServer(PoolConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := serviceMixRequests(t, 1)[0]
	req.Wait = true

	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	defer release()
	s.pool.mu.Lock()
	shards := append([]*shard(nil), s.pool.shards...)
	s.pool.mu.Unlock()
	for _, sh := range shards {
		if !sh.loop.Post(func() { <-gate }) {
			t.Fatal("shard loop refused the gate")
		}
	}

	codes := make(chan int, maxWaitHolders)
	for i := 0; i < maxWaitHolders; i++ {
		go func() { codes <- s.Submit(context.Background(), req).Code }()
	}
	for s.holders.Load() < maxWaitHolders {
		select {
		case code := <-codes:
			t.Fatalf("a holder was answered %d with the shard loops stalled", code)
		default:
			runtime.Gosched()
		}
	}

	extra := s.Submit(context.Background(), req)
	if extra.Code != http.StatusAccepted || extra.Err != nil || extra.Job.ID == "" || extra.Job.Status != "queued" {
		t.Fatalf("holder %d: %d %v %+v, want 202 and a queued envelope", maxWaitHolders+1, extra.Code, extra.Err, extra.Job)
	}
	if got := s.holders.Load(); got != maxWaitHolders {
		t.Fatalf("%d holders counted after the refused one returned, want %d", got, maxWaitHolders)
	}

	release()
	for i := 0; i < maxWaitHolders; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("holder answered %d, want 200", code)
		}
	}
	awaitDone(t, s, extra.Job.ID)
	if got := s.holders.Load(); got != 0 {
		t.Fatalf("%d holders counted with none left", got)
	}
	// Room again: the next wait:true request is held and answered 200.
	if rp := s.Submit(context.Background(), req); rp.Code != http.StatusOK {
		t.Fatalf("a holder under the cap was answered %d: %v", rp.Code, rp.Err)
	}
}
