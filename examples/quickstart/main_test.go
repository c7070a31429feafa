package main

import (
	"testing"

	"mv2j/internal/exampletest"
)

// TestQuickstartExample runs the example end to end and pins its last output
// line: the latest rank's reduction and virtual time.
func TestQuickstartExample(t *testing.T) {
	exampletest.PinLastLine(t, main, "rank 1/4: bcast=3.14159, sum(ranks)=6, virtual time=19072030")
}
