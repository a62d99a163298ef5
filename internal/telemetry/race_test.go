//go:build race

package telemetry

// raceEnabled reports a -race build. The race runtime changes allocation
// counts (sync.Pool, which encoding/json's encoder uses, drops items at
// random), so the allocation test skips there and run without -race.
const raceEnabled = true
