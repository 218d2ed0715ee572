package core

import (
	"os"
	"testing"
)

// TestMain lowers the fan-out threshold for this package's tests: the
// equivalence, snapshot, diagram and torture suites hold the worker pool
// to the serial path on catalog programs, whose passes (at most 999
// points) would otherwise all stay on the caller's goroutine.
func TestMain(m *testing.M) {
	minParallelPoints = 8
	os.Exit(m.Run())
}
