//go:build !race

package graph

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
