package scenario

import (
	"testing"

	"ezbft/internal/bench"
)

// runForgedTransferCells drives the forged-transfer cells for protocols:
// the flapping victim is forced into catch-up while the compromised
// replica serves it the real response with one part forged under a valid
// signature and the genuine checkpoint proof — the snapshot bytes
// (lying-snapshot-responder) or the commands of its executed suffix
// (forged-suffix-responder). Every per-message check passes, so only f+1
// cross-validation stands between the victim and corrupted state. Each
// cell must pass every invariant — a forged command that executes fails
// the journal's issued-command check even when a later install overwrites
// it — and a victim must have installed a transfer. A forged snapshot
// disagrees with every honest anchor, so its responder must also show up
// in CatchupMismatches: a zero count would mean the forgery was never
// solicited. Zyzzyva's victim spends the voter window holding the liar on
// a request made while still cut off, on every seed, and installs from the
// next, honest window; its cells check the outcome only.
func runForgedTransferCells(t *testing.T, protocols []bench.Protocol) {
	t.Helper()
	for _, name := range []string{"lying-snapshot-responder", "forged-suffix-responder"} {
		for _, p := range protocols {
			for _, seed := range []int64{1, 2, 3} {
				cell := Cell{
					Protocol: p, Strategy: StrategyByName(name),
					Shape: ShapeByName("flapping-partition"), Batching: true, Checkpointing: true,
				}
				res, err := Run(cell, Config{Seed: seed})
				if err != nil {
					t.Fatalf("%s seed %d: %v", cell.Name(), seed, err)
				}
				if !res.Pass {
					t.Errorf("%s seed %d: %v", cell.Name(), seed, res.Violations)
				}
				if res.CatchupInstalls == 0 {
					t.Errorf("%s seed %d: no state transfer installed — the victim never exercised catch-up", cell.Name(), seed)
				}
				if name == "lying-snapshot-responder" && p != bench.Zyzzyva && res.CatchupMismatches == 0 {
					t.Errorf("%s seed %d: forged responder never convicted (CatchupMismatches == 0)", cell.Name(), seed)
				}
			}
		}
	}
}

// TestCrossValidationConviction runs the forged-transfer cells on ezBFT
// and PBFT.
func TestCrossValidationConviction(t *testing.T) {
	runForgedTransferCells(t, []bench.Protocol{bench.EZBFT, bench.PBFT})
}

// TestCrossValidationRejection runs the forged-transfer cells on Zyzzyva
// and FaB.
func TestCrossValidationRejection(t *testing.T) {
	runForgedTransferCells(t, []bench.Protocol{bench.Zyzzyva, bench.FaB})
}
