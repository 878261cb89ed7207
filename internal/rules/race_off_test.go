//go:build !race

package rules_test

// raceEnabled reports whether the race detector instruments this build;
// allocation regression bounds are meaningless under its inflation.
const raceEnabled = false
