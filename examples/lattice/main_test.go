package main

import (
	"testing"

	"mv2j/internal/exampletest"
)

// TestLatticeExample runs the example end to end and pins its last output
// line: the 2-D decomposition matches the serial solve.
func TestLatticeExample(t *testing.T) {
	exampletest.PinLastLine(t, main, "2-D lattice solve matches the serial reference")
}
