//go:build race

package auth

// raceEnabled reports that the race detector is on; it changes allocation
// counts, so the allocation guards skip themselves under it.
const raceEnabled = true
