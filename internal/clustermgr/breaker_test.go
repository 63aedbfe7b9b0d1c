package clustermgr

import (
	"testing"

	"repro/internal/sim"
)

// TestBreakerNeverReadmitsWhileOpen is the breaker's core safety property:
// from the trip until the cooldown elapses, Admissible answers false at
// every instant, no matter how often it is asked or how many more failures
// arrive (late failures extend the window, never shorten it).
func TestBreakerNeverReadmitsWhileOpen(t *testing.T) {
	se, _, m := testMgr(t)
	m.EnableBreakers(3, 10)
	for i := 0; i < 3; i++ {
		if !m.Admissible("llava") {
			t.Fatalf("breaker tripped after %d failures, threshold is 3", i)
		}
		m.ReportOutcome("llava", false)
	}
	if m.Admissible("llava") {
		t.Fatal("admissible immediately after tripping")
	}
	if !m.Quarantined("llava") {
		t.Fatal("tripped implementation not quarantined")
	}
	// Probe admissibility at every simulated second of the cooldown: the
	// breaker must hold, including under repeated polling at one instant.
	for s := 1; s < 10; s++ {
		s := s
		se.Schedule(sim.Time(s), func() {
			for i := 0; i < 3; i++ {
				if m.Admissible("llava") {
					t.Errorf("breaker re-admitted at %ds, cooldown is 10s", s)
				}
			}
		})
	}
	// A straggler failure at 6s extends the window to 16s.
	se.Schedule(6, func() { m.ReportOutcome("llava", false) })
	for s := 10; s < 16; s++ {
		s := s
		se.Schedule(sim.Time(s), func() {
			if m.Admissible("llava") {
				t.Errorf("breaker re-admitted at %ds despite the 6s straggler extending to 16s", s)
			}
		})
	}
	se.Run()
}

// TestBreakerHalfOpenSingleProbe checks the half-open protocol: after the
// cooldown exactly one probe is admitted, further callers are refused until
// its outcome lands, a failed probe re-opens for a fresh cooldown and a
// successful probe closes the breaker and resets the failure count.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	se, _, m := testMgr(t)
	m.EnableBreakers(2, 5)
	m.ReportOutcome("whisper", false)
	m.ReportOutcome("whisper", false)
	se.Schedule(5, func() {
		if !m.Admissible("whisper") {
			t.Error("no probe admitted after the cooldown")
		}
		if m.Admissible("whisper") {
			t.Error("second probe admitted while the first is outstanding")
		}
		if !m.Quarantined("whisper") {
			t.Error("half-open breaker not quarantined")
		}
		// Probe fails: re-open for another 5s.
		m.ReportOutcome("whisper", false)
		if m.Admissible("whisper") {
			t.Error("admissible right after a failed probe")
		}
	})
	se.Schedule(10, func() {
		if !m.Admissible("whisper") {
			t.Error("no probe admitted after the second cooldown")
		}
		// Probe succeeds: closed, failures reset.
		m.ReportOutcome("whisper", true)
		if !m.Admissible("whisper") || m.Quarantined("whisper") {
			t.Error("breaker not closed after a successful probe")
		}
		// One more failure must not trip the reset counter (threshold 2).
		m.ReportOutcome("whisper", false)
		if !m.Admissible("whisper") {
			t.Error("breaker tripped on one failure after reset")
		}
	})
	se.Run()
	open, trips := m.BreakerStats()
	if open != 0 || trips != 2 {
		t.Fatalf("breaker stats open=%d trips=%d, want 0 open and 2 trips", open, trips)
	}
}

// TestBreakerSuccessResetsClosedCount: consecutive-failure counting, not
// cumulative — a success between failures keeps the breaker closed.
func TestBreakerSuccessResetsClosedCount(t *testing.T) {
	_, _, m := testMgr(t)
	m.EnableBreakers(2, 5)
	for i := 0; i < 6; i++ {
		m.ReportOutcome("nvlm", false)
		m.ReportOutcome("nvlm", true)
	}
	if !m.Admissible("nvlm") || m.Quarantined("nvlm") {
		t.Fatal("alternating outcomes tripped a threshold-2 breaker")
	}
	if open, trips := m.BreakerStats(); open != 0 || trips != 0 {
		t.Fatalf("breaker stats open=%d trips=%d, want zeros", open, trips)
	}
}

// TestBreakerDisabledAlwaysAdmits: with breakers off (the default) every
// outcome is accepted silently and everything stays admissible — the
// recovery-disabled daemon must be unaffected by the subsystem's existence.
func TestBreakerDisabledAlwaysAdmits(t *testing.T) {
	_, _, m := testMgr(t)
	for i := 0; i < 10; i++ {
		m.ReportOutcome("llava", false)
	}
	if !m.Admissible("llava") || m.Quarantined("llava") {
		t.Fatal("disabled breakers affected admission")
	}
	if m.breakers != nil {
		t.Fatal("breakers report enabled without EnableBreakers")
	}
	if open, trips := m.BreakerStats(); open != 0 || trips != 0 {
		t.Fatalf("breaker stats open=%d trips=%d without enablement", open, trips)
	}
}

func TestEnableBreakersValidates(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		cooldown  float64
	}{
		{"zero threshold", 0, 5},
		{"zero cooldown", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, m := testMgr(t)
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			m.EnableBreakers(tc.threshold, tc.cooldown)
		})
	}
	t.Run("double enable", func(t *testing.T) {
		_, _, m := testMgr(t)
		m.EnableBreakers(3, 5)
		defer func() {
			if recover() == nil {
				t.Fatal("want panic")
			}
		}()
		m.EnableBreakers(3, 5)
	})
}
