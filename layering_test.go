package predictddl

import (
	"os/exec"
	"strings"
	"testing"
)

// TestPredictorsDoNotImportTheAnswerKey fails when a package on the
// predictor side reaches the ground-truth simulator or the experiments that
// drive it, directly or through any dependency. A predictor that can call
// the code generating its training data can score well by reading the
// answer instead of learning it; the shared physics lives in
// internal/costmodel, which both sides import.
func TestPredictorsDoNotImportTheAnswerKey(t *testing.T) {
	answerKey := []string{"predictddl/internal/simulator", "predictddl/internal/experiments"}
	guarded := []string{
		"costmodel", "ernest", "regress", "ghn", "graph", "nn", "tensor",
		"jsonscan", "obs", "cluster", "dataset",
	}
	// Exempt until the benchmark harness stops building them: core's
	// trainer still takes TrainOptions{Campaign, Simulator} and
	// simulator.DataPoint, and bench/run.go and bench/setup.go construct
	// both; gateway reaches the simulator through core.
	exempt := []string{"core", "gateway"}

	pkgs := make([]string, 0, len(guarded)+len(exempt))
	for _, p := range append(guarded, exempt...) {
		pkgs = append(pkgs, "predictddl/internal/"+p)
	}
	out, err := exec.Command("go", append([]string{"list", "-f", `{{.ImportPath}} {{join .Deps " "}}`}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	reaches := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		deps := map[string]bool{}
		for _, d := range fields[1:] {
			deps[d] = true
		}
		for _, key := range answerKey {
			if deps[key] {
				reaches[fields[0]] = append(reaches[fields[0]], key)
			}
		}
	}
	for _, p := range guarded {
		if keys := reaches["predictddl/internal/"+p]; len(keys) > 0 {
			t.Errorf("internal/%s reaches %v", p, keys)
		}
	}
	for _, p := range exempt {
		if len(reaches["predictddl/internal/"+p]) == 0 {
			t.Errorf("internal/%s no longer reaches the simulator: drop its exemption", p)
		}
	}
}
