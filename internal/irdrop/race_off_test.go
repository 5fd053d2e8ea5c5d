//go:build !race

package irdrop_test

const raceEnabled = false
