package main

import (
	"testing"

	"mv2j/internal/exampletest"
)

// TestFTShrinkExample runs the example end to end and pins its last output
// line: the survivors' final virtual time and failed set.
func TestFTShrinkExample(t *testing.T) {
	exampletest.PinLastLine(t, main, "done on 3 survivors at t=158342555; world reports failed ranks [2]")
}
