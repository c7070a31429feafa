//go:build race

package core

// raceEnabled reports whether the race detector instruments this
// binary. Under -race, sync.Pool deliberately drops puts at random to
// widen race coverage, so allocation-count assertions are meaningless.
const raceEnabled = true
