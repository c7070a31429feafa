package main

import (
	"testing"

	"mv2j/internal/exampletest"
)

// TestKMeansExample runs the example end to end and pins its last output
// line: the distributed centroids match the serial reference.
func TestKMeansExample(t *testing.T) {
	exampletest.PinLastLine(t, main, "distributed result matches the serial reference")
}
