//go:build race

package core

// raceEnabled reports a -race build. The race detector's shadow memory
// multiplies the heap, so tests sized like the paper CNN (about 0.9 GB)
// skip under it; their small-dimension counterparts still run.
const raceEnabled = true
