package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ezbft"
)

// pending is one in-flight command; *ezbft.Future and the traced client's
// future both satisfy it.
type pending interface {
	Wait(ctx context.Context) (ezbft.Result, error)
	FastPath() bool
	Latency() time.Duration
}

// loadClient is what the load generator needs of a client.
type loadClient interface {
	Submit(ctx context.Context, cmd ezbft.Command) (pending, error)
	Stats() ezbft.ClientStats
	Close() error
}

// publicClient adapts *ezbft.Client to loadClient.
type publicClient struct{ *ezbft.Client }

func (c publicClient) Submit(ctx context.Context, cmd ezbft.Command) (pending, error) {
	f, err := c.Client.Submit(ctx, cmd)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// deployment is a running cluster with its clients attached.
type deployment struct {
	clients []loadClient
	// digests returns the state digest of every live replica.
	digests func() []string
	// stopDown closes the workload's silent replica (nil without one).
	stopDown func()
	// closers run last-registered-first on close, like defers.
	closers []func()
	// probe is set by the traced deployment only.
	probe *layerProbe
}

func (d *deployment) onClose(fn func()) { d.closers = append(d.closers, fn) }

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// clientHome is the replica client c attaches to: R0 and R2 under ezBFT,
// the primary R0 under PBFT.
func clientHome(sp spec, c int) ezbft.ReplicaID {
	if sp.protocol == ezbft.PBFT {
		return 0
	}
	return ezbft.ReplicaID(2 * c % numReplicas)
}

// deploy brings a workload's cluster up through the public API: key
// generation, replica start, peer exchange and client registration. The
// caller closes the deployment on every path, also after an error.
func deploy(sp spec, scratch string) (*deployment, error) {
	d := &deployment{}
	if sp.mesh {
		return d, d.deployMesh(sp)
	}
	return d, d.deployTCP(sp, scratch)
}

func (d *deployment) deployMesh(sp spec) error {
	lc, err := ezbft.NewLiveCluster(ezbft.LiveConfig{
		Protocol: sp.protocol, N: numReplicas, MaxClients: numClients,
		Delay: sp.delay, CheckpointInterval: sp.checkpoint,
	})
	if err != nil {
		return err
	}
	d.onClose(lc.Close)
	d.digests = func() []string {
		out := make([]string, numReplicas)
		for i := range out {
			out[i] = lc.StateDigest(i)
		}
		return out
	}
	for c := 0; c < numClients; c++ {
		cl, err := lc.NewClient(clientHome(sp, c))
		if err != nil {
			return err
		}
		d.clients = append(d.clients, publicClient{cl})
	}
	return nil
}

// tcpSecret is the HMAC workloads' shared key.
var tcpSecret = []byte("benchmark")

// nodeKeys returns each node's ECDSA bundle by node name, or an empty map
// (whose lookups select HMAC) for the HMAC workloads.
func nodeKeys(sp spec) (map[string][]byte, error) {
	if !sp.ecdsa {
		return nil, nil
	}
	return ezbft.GenerateTCPKeys(numReplicas, numClients)
}

// storeDir makes the workload's WAL directory under scratch ("" when the
// workload runs without one) and removes it when the deployment closes.
func (d *deployment) storeDir(sp spec, scratch string) (string, error) {
	if !sp.disk {
		return "", nil
	}
	dir, err := os.MkdirTemp(scratch, sp.name+"-")
	if err != nil {
		return "", err
	}
	d.onClose(func() { os.RemoveAll(dir) })
	return dir, nil
}

func (d *deployment) deployTCP(sp spec, scratch string) error {
	keys, err := nodeKeys(sp)
	if err != nil {
		return err
	}
	dir, err := d.storeDir(sp, scratch)
	if err != nil {
		return err
	}
	replicas := make([]*ezbft.TCPReplica, 0, numReplicas)
	addrs := make(map[ezbft.ReplicaID]string, numReplicas)
	for i := 0; i < numReplicas; i++ {
		cfg := ezbft.TCPReplicaConfig{
			Protocol: sp.protocol, ID: ezbft.ReplicaID(i), N: numReplicas,
			Secret: tcpSecret, KeyPEM: keys[fmt.Sprintf("R%d", i)],
			CheckpointInterval: sp.checkpoint,
		}
		if sp.disk {
			cfg.Durability = ezbft.DurabilityDisk
			cfg.StoreDir = filepath.Join(dir, fmt.Sprintf("r%d", i))
		}
		r, err := ezbft.StartTCPReplica(cfg)
		if err != nil {
			return err
		}
		d.onClose(func() { r.Close() })
		replicas = append(replicas, r)
		addrs[ezbft.ReplicaID(i)] = r.Addr()
	}
	for _, r := range replicas {
		for id, addr := range addrs {
			r.SetPeer(id, addr)
		}
	}
	d.digests = func() []string {
		out := make([]string, 0, numReplicas)
		for i, r := range replicas {
			if i != sp.down {
				out = append(out, r.StateDigest())
			}
		}
		return out
	}
	if sp.down >= 0 {
		d.stopDown = func() { replicas[sp.down].Close() }
	}
	for c := 0; c < numClients; c++ {
		cl, err := ezbft.NewTCPClient(ezbft.TCPClientConfig{
			Protocol: sp.protocol, ID: ezbft.ClientID(c), N: numReplicas,
			Nearest: clientHome(sp, c), Replicas: addrs,
			Secret: tcpSecret, KeyPEM: keys[fmt.Sprintf("c%d", c)],
		})
		if err != nil {
			return err
		}
		d.onClose(func() { cl.Close() })
		d.clients = append(d.clients, publicClient{cl})
	}
	return nil
}
