//go:build race

package pbs

// raceDetector reports whether the tests run under the race detector, whose
// sync.Pool drops a share of what it is handed: allocation budgets that
// rely on pooled scratch cannot hold there.
const raceDetector = true
