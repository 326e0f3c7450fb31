// The benchmark is a module of its own so that it has its own build file
// and the repository's `go build ./... && go test ./...` never compile it;
// the replace directive points at the tree it measures.
module predictddl/bench

go 1.22

require predictddl v0.0.0

replace predictddl => ../
