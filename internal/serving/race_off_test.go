//go:build !race

package serving

const raceEnabled = false
