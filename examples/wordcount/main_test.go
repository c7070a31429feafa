package main

import (
	"testing"

	"mv2j/internal/exampletest"
)

// TestWordCountExample runs the example end to end and pins its last output
// line: the fifth most frequent word and its count.
func TestWordCountExample(t *testing.T) {
	exampletest.PinLastLine(t, main, "  buffer       778")
}
