package main

import (
	"testing"

	"mv2j/internal/exampletest"
)

// TestMonteCarloExample runs the example end to end and pins its last output
// line: the reduced estimate and its error.
func TestMonteCarloExample(t *testing.T) {
	exampletest.PinLastLine(t, main, "pi ~= 3.140866 over 3200000 samples on 16 ranks (error 7.26e-04)")
}
