package main

import (
	"testing"

	"mv2j/internal/exampletest"
)

// TestPingPongExample runs the example end to end and pins its last output
// line: the 1 MiB buffer and arrays latencies.
func TestPingPongExample(t *testing.T) {
	exampletest.PinLastLine(t, main, "1048576                 90.13             195.67")
}
