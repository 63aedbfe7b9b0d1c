package clustermgr

import "repro/internal/sim"

// Circuit breakers quarantine flapping implementations: after threshold
// consecutive failures an implementation's breaker opens and admission of
// retries against it is refused until a cooldown elapses, at which point a
// single half-open probe is let through — success closes the breaker,
// failure re-opens it for another cooldown. The breaker lives here, not in
// core: the manager owns capability→engine placement, so it is the layer
// that sees failures from every execution against the same implementation,
// and the quarantine signal feeds both retry admission and the scheduler's
// degradation decision.

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one implementation's failure state machine.
type breaker struct {
	state     breakerState
	failures  int // consecutive failures while closed
	openUntil sim.Time
	probing   bool // half-open with the single probe outstanding
	trips     int
}

// breakerSet is the manager's breaker table (nil until EnableBreakers).
type breakerSet struct {
	threshold int
	cooldown  sim.Duration
	byKey     map[string]*breaker
}

// EnableBreakers turns circuit breaking on: threshold consecutive failures
// of an implementation open its breaker for cooldownS simulated seconds.
// Call once, before failures are reported.
func (m *Manager) EnableBreakers(threshold int, cooldownS float64) {
	if m.breakers != nil {
		panic("clustermgr: breakers already enabled")
	}
	if threshold <= 0 || cooldownS <= 0 {
		panic("clustermgr: breaker threshold and cooldown must be positive")
	}
	m.breakers = &breakerSet{
		threshold: threshold,
		cooldown:  sim.Duration(cooldownS),
		byKey:     map[string]*breaker{},
	}
}

// ReportOutcome feeds one task outcome against an implementation into its
// breaker. No-op when breakers are disabled.
func (m *Manager) ReportOutcome(impl string, ok bool) {
	bs := m.breakers
	if bs == nil || impl == "" {
		return
	}
	b := bs.byKey[impl]
	if b == nil {
		if ok {
			return // don't allocate state for healthy implementations
		}
		b = &breaker{}
		bs.byKey[impl] = b
	}
	switch b.state {
	case breakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= bs.threshold {
			b.trip(m.se.Now(), bs.cooldown)
		}
	case breakerOpen:
		if !ok {
			// Still failing while open (in-flight stragglers): extend.
			b.openUntil = m.se.Now().Add(bs.cooldown)
		}
	case breakerHalfOpen:
		b.probing = false
		if ok {
			b.state = breakerClosed
			b.failures = 0
		} else {
			b.trip(m.se.Now(), bs.cooldown)
		}
	}
}

func (b *breaker) trip(now sim.Time, cooldown sim.Duration) {
	b.state = breakerOpen
	b.openUntil = now.Add(cooldown)
	b.failures = 0
	b.probing = false
	b.trips++
}

// Admissible reports whether work may be sent to an implementation. While a
// breaker is open it always answers false until the cooldown elapses; the
// first call after that transitions to half-open and admits exactly one
// probe (further calls answer false until the probe's outcome is reported).
// Always true when breakers are disabled or the implementation never failed.
func (m *Manager) Admissible(impl string) bool {
	bs := m.breakers
	if bs == nil {
		return true
	}
	b := bs.byKey[impl]
	if b == nil {
		return true
	}
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if m.se.Now() < b.openUntil {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Quarantined reports whether an implementation's breaker is currently not
// closed — the signal the scheduler's degradation policy keys on when
// choosing a replacement implementation.
func (m *Manager) Quarantined(impl string) bool {
	bs := m.breakers
	if bs == nil {
		return false
	}
	b := bs.byKey[impl]
	return b != nil && b.state != breakerClosed
}

// BreakerStats returns the number of breakers currently open or half-open,
// and total trips so far.
func (m *Manager) BreakerStats() (open, trips int) {
	bs := m.breakers
	if bs == nil {
		return 0, 0
	}
	for _, b := range bs.byKey {
		if b.state != breakerClosed {
			open++
		}
		trips += b.trips
	}
	return open, trips
}
