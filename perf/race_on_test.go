//go:build race

package main

// raceEnabled: the race detector slows the smoke pass several times over,
// so its ten-second limit applies only without it.
const raceEnabled = true
