package zyzzyva

import (
	"errors"
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/engine"
	"ezbft/internal/kvstore"
	"ezbft/internal/store"
	"ezbft/internal/types"
)

// TestStoreRefused: Zyzzyva logs nothing, so its engine refuses a store with
// engine.ErrNoWAL instead of building a replica that would forget
// everything across the restart the store was meant to survive.
func TestStoreRefused(t *testing.T) {
	eng, err := engine.Lookup(engine.Zyzzyva)
	if err != nil {
		t.Fatal(err)
	}
	o := engine.ReplicaOptions{
		Self: 0, N: 4, App: kvstore.New(),
		Auth: auth.NewHMACKeyring([]byte("no-wal")).ForNode(types.ReplicaNode(0)),
	}
	if _, err := eng.NewReplica(o); err != nil {
		t.Fatalf("without a store: %v", err)
	}
	o.Store = store.NewMemory()
	if _, err := eng.NewReplica(o); !errors.Is(err, engine.ErrNoWAL) {
		t.Fatalf("with a store: got %v, want engine.ErrNoWAL", err)
	}
}
