package engine_test

import (
	"bytes"
	"cmp"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ezbft/internal/engine"
	"ezbft/internal/types"
)

// updateSnapshots rewrites the golden snapshot files from the current code;
// a change that must keep the bytes on disk does not run it.
var updateSnapshots = flag.Bool("update-snapshots", false, "rewrite testdata/snapshot-*.bin")

// TestSnapshotBytesUnchanged: the store snapshot a sequenced replica cuts is
// byte for byte the one earlier versions wrote for the same history
// (testdata), so a store written by either recovers under the other. The
// history leaves a slot above the stable mark, with the certificate the
// replica holds for it, in the snapshot: replica 3 hears the CHECKPOINT
// votes for slot 2, in voter order, only after slot 3 is certified.
func TestSnapshotBytesUnchanged(t *testing.T) {
	for _, p := range sequencedProtocols {
		t.Run(string(p.name), func(t *testing.T) {
			c := newDurable(t, p, engine.ReplicaOptions{CheckpointInterval: 2})
			var held []envelope
			c.drop = func(e envelope) bool {
				_, vote := e.msg.(*engine.Checkpoint)
				if vote && e.to == types.ReplicaNode(3) {
					held = append(held, e)
					return true
				}
				return false
			}
			for ts := uint64(1); ts <= 2; ts++ {
				c.deliver(0, types.ClientNode(1), c.request(1, ts))
			}
			c.pump()
			c.client = nil
			c.deliver(0, types.ClientNode(1), c.request(1, 3))
			c.pump()
			if p.certify != nil {
				p.certify(c, 3)
				c.pump()
			}
			c.drop = nil
			slices.SortStableFunc(held, func(a, b envelope) int { return cmp.Compare(a.from, b.from) })
			for _, e := range held {
				c.deliver(3, e.from, e.msg)
			}
			c.pump()

			got, _, err := c.stores[3].LoadSnapshot()
			if err != nil || got == nil {
				t.Fatalf("no snapshot cut: %v", err)
			}
			golden := filepath.Join("testdata", "snapshot-"+string(p.name)+".bin")
			if *updateSnapshots {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("the snapshot is %d bytes that differ from the %d recorded in %s", len(got), len(want), golden)
			}
		})
	}
}
