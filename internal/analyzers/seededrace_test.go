//go:build !race

package analyzers_test

import (
	"testing"

	"gearbox/internal/par"
)

// TestSeededRacePassesWithoutRaceDetector is the dynamic half of the
// sharedwrite demonstration: the exact worker-closure shape the analyzer
// flags — a captured accumulator written by every worker — runs to
// completion and passes under plain `go test`. The race is real (the
// detector catches it, which is why this file is excluded from race
// builds) but silent: lost updates perturb the sum nondeterministically
// without crashing, which is precisely the class of bug a test suite
// cannot reliably catch and the analyzer must.
//
// The static half lives in testdata/src/sharedwrite/a.go: capturedScalar
// is this same shape and carries the `// want "write to captured variable"`
// expectation that TestSharedwrite asserts.
func TestSeededRacePassesWithoutRaceDetector(t *testing.T) {
	pool := par.New(4)
	total := 0
	pool.ForEach("race", 1<<14, func(w, i int) {
		total += i // the racy captured-variable write sharedwrite flags
	})
	// No assertion on the value: lost updates make it nondeterministic.
	// The point is that nothing here fails without the race detector.
	if total < 0 {
		t.Fatalf("sum of non-negative terms went negative: %d", total)
	}
}
