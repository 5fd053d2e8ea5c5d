//go:build race

package irdrop_test

// raceEnabled reports a -race build, whose ~30× slower solves put the
// fine-mesh checks out of reach.
const raceEnabled = true
