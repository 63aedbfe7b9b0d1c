//go:build race

package optimizer

// raceEnabled: allocation budgets are not asserted under the race detector
// (its instrumentation changes what escapes).
const raceEnabled = true
