//go:build !race

package pbs

// raceDetector reports whether the tests run under the race detector (see
// race_test.go).
const raceDetector = false
