package engine

// The view-change decoder's bounds, for the external tests.
const (
	MaxViewSlots = maxViewSlots
	MaxCertVotes = maxCertVotes
	MaxViewProof = maxViewProof
)
