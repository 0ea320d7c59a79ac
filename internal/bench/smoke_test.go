package bench

import (
	"testing"
	"time"

	"gearbox/internal/mem"
)

func TestSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke of the full suite")
	}
	start := time.Now()
	cfg := TinyConfig()
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(0); err != nil {
		t.Fatal(err)
	}
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		t.Log("\n" + tb.String())
	}
	t.Logf("wall: %v", time.Since(start))
}

// TestPrewarmReturnsFirstError: a suite whose every run fails (the zero
// geometry fails partition validation) must return an error from Prewarm at
// any worker count, not block once the workers stop taking jobs.
func TestPrewarmReturnsFirstError(t *testing.T) {
	s, err := NewSuite(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Cfg.Geo = mem.Geometry{}
	for _, workers := range []int{1, 2} {
		done := make(chan error, 1)
		go func() { done <- s.Prewarm(workers) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: Prewarm accepted a zero geometry", workers)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: Prewarm did not return within 30s", workers)
		}
	}
}
