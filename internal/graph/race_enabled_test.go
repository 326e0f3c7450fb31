//go:build race

package graph

// raceEnabled reports whether the race detector instruments this build.
// sync.Pool deliberately drops items under the race detector to expose
// unsound reuse, so pooled-path allocation bounds only hold without it.
const raceEnabled = true
