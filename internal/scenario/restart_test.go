package scenario

import (
	"testing"

	"ezbft/internal/engine"
)

func TestRestartCells(t *testing.T) {
	for _, cell := range []Cell{
		{Protocol: engine.EZBFT, Restart: true, Checkpointing: true},
		{Protocol: engine.EZBFT, Restart: true, Batching: true, Checkpointing: true},
		{Protocol: engine.EZBFT, Restart: true},
		{Protocol: engine.PBFT, Restart: true, Checkpointing: true},
		{Protocol: engine.PBFT, Restart: true, Batching: true, Checkpointing: true},
		{Protocol: engine.Zyzzyva, Restart: true, Checkpointing: true},
		{Protocol: engine.Zyzzyva, Restart: true, Batching: true, Checkpointing: true},
		{Protocol: engine.FaB, Restart: true, Checkpointing: true},
		{Protocol: engine.FaB, Restart: true, Batching: true, Checkpointing: true},
	} {
		res, err := Run(cell, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", cell.Name(), err)
		}
		t.Logf("%s", res)
		if !res.Pass {
			t.Errorf("FAIL %s", res)
		}
	}
}
