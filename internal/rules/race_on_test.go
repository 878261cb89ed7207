//go:build race

package rules_test

const raceEnabled = true
