// Command ezbft-server runs one live BFT replica over TCP — ezBFT by
// default, or any registered protocol engine via -p (pbft, zyzzyva, fab).
// It is a thin wrapper around ezbft.StartTCPReplica serving the reference
// key-value store; embed StartTCPReplica directly (with your own
// ApplicationFactory) to serve a custom application over the same wire
// protocol.
//
// A four-replica local cluster:
//
//	ezbft-server -id 0 -n 4 -listen :7000 -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002,3=localhost:7003 -secret demo &
//	ezbft-server -id 1 -n 4 -listen :7001 -peers ... -secret demo &
//	ezbft-server -id 2 -n 4 -listen :7002 -peers ... -secret demo &
//	ezbft-server -id 3 -n 4 -listen :7003 -peers ... -secret demo &
//
// then drive it with ezbft-client (pass the same -p). All nodes must share
// -secret (HMAC key material) and -p; unknown protocol names are rejected
// with the registered ones listed. -batch enables leader-side request
// batching on any protocol. -store-dir gives the replica a disk-backed
// WAL + snapshot store: killed and restarted over the same directory, it
// recovers its pre-crash state instead of state-transferring it from
// peers (-fsync makes the store power-failure-safe at a latency cost).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ezbft"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ezbft-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ezbft-server", flag.ContinueOnError)
	proto := fs.String("p", "ezbft", "consensus protocol (ezbft, pbft, zyzzyva, fab)")
	id := fs.Int("id", 0, "replica id (0..n-1)")
	n := fs.Int("n", 4, "cluster size (3f+1)")
	primary := fs.Int("primary", 0, "initial primary/leader (primary-based protocols)")
	listen := fs.String("listen", ":7000", "listen address")
	peers := fs.String("peers", "", "comma-separated id=host:port for every replica")
	secret := fs.String("secret", "", "shared HMAC secret (required unless -key is given)")
	keyFile := fs.String("key", "", "ECDSA PEM key bundle file (switches authentication to ECDSA)")
	batch := fs.Int("batch", 1, "max client requests ordered per instance (1 = unbatched)")
	batchDelay := fs.Duration("batch-delay", 2*time.Millisecond, "max wait for an incomplete batch")
	ckpt := fs.Uint64("checkpoint", 0, "checkpoint interval in executed entries (0 = protocol default)")
	retention := fs.Uint64("retention", 0, "extra log entries retained below the stable checkpoint")
	verifyWorkers := fs.Int("verify-workers", 0, "signature-verification workers (0 = GOMAXPROCS)")
	storeDir := fs.String("store-dir", "", "durable-store directory: persist the WAL+snapshot there and recover state when restarted over it (empty = no durability)")
	fsync := fs.Bool("fsync", false, "fsync the durable store at every group-commit point (crash-safe; requires -store-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *secret == "" && *keyFile == "" {
		return fmt.Errorf("-secret or -key is required")
	}
	addrs, err := parsePeers(*peers)
	if err != nil {
		return err
	}

	rep, err := ezbft.StartTCPReplica(ezbft.TCPReplicaConfig{
		Protocol:           ezbft.Protocol(*proto),
		ID:                 ezbft.ReplicaID(*id),
		N:                  *n,
		Primary:            ezbft.ReplicaID(*primary),
		Listen:             *listen,
		Peers:              addrs,
		Secret:             []byte(*secret),
		KeyFile:            *keyFile,
		BatchSize:          *batch,
		BatchDelay:         *batchDelay,
		CheckpointInterval: *ckpt,
		LogRetention:       *retention,
		VerifyWorkers:      *verifyWorkers,
		StoreDir:           *storeDir,
		Fsync:              *fsync,
	})
	if err != nil {
		return err
	}
	defer rep.Close()
	fmt.Printf("ezbft-server: %s replica R%d listening on %s (cluster n=%d, batch=%d)\n",
		rep.Protocol(), *id, rep.Addr(), *n, *batch)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	return nil
}

func parsePeers(s string) (map[ezbft.ReplicaID]string, error) {
	out := make(map[ezbft.ReplicaID]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		var id int
		if _, err := fmt.Sscanf(kv[0], "%d", &id); err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", kv[0], err)
		}
		out[ezbft.ReplicaID(id)] = kv[1]
	}
	return out, nil
}
