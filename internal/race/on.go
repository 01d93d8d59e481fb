//go:build race

// Package race reports whether the binary was built with the race detector.
// The detector changes allocation counts (it disables sync.Pool reuse, among
// other things), so allocation guards in tests skip themselves under it.
package race

// Enabled is true under -race.
const Enabled = true
