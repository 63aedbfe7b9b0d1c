//go:build race

package core

// raceEnabled: allocation budgets are not asserted under the race detector
// (its instrumentation changes what escapes and what a sync.Pool keeps).
const raceEnabled = true
