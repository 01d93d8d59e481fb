//go:build !race

package auth

const raceEnabled = false
