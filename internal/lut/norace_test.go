//go:build !race

package lut

const raceEnabled = false
