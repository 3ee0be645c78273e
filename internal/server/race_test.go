//go:build race

package server

// raceEnabled reports a -race build, where sync.Pool drops items at
// random, so allocation counts are not deterministic.
const raceEnabled = true
