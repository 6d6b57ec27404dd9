//go:build !race

package cluster

// raceDetector reports a build with the race detector, whose slowdown
// no wall-clock budget is written for.
const raceDetector = false
