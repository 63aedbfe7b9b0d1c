//go:build race

package api

// raceEnabled: under the race detector sync.Pool drops a share of what is Put,
// so allocation budgets that ride a pool do not hold.
const raceEnabled = true
