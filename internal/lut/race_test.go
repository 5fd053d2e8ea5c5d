//go:build race

package lut

// raceEnabled reports a -race build, whose ~30× slower solves put the
// full-pitch oracle checks out of reach.
const raceEnabled = true
