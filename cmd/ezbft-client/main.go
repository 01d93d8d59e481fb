// Command ezbft-client drives a live BFT cluster over TCP — ezBFT by
// default, or any registered protocol engine via -p (pbft, zyzzyva, fab;
// must match the servers' -p). It is a thin wrapper around
// ezbft.NewTCPClient: one-shot commands use the blocking context-aware
// Execute; bench uses the pipelined Submit/Future API with -inflight
// commands outstanding.
//
// Examples (against the cluster from the ezbft-server docs):
//
//	ezbft-client -replicas 0=localhost:7000,1=localhost:7001,2=localhost:7002,3=localhost:7003 -secret demo put greeting hello
//	ezbft-client -replicas ... -secret demo get greeting
//	ezbft-client -replicas ... -secret demo incr counter
//	ezbft-client -replicas ... -secret demo bench -count 200 -inflight 8
//	ezbft-client -p pbft -replicas ... -secret demo put greeting hello
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ezbft"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ezbft-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ezbft-client", flag.ContinueOnError)
	proto := fs.String("p", "ezbft", "consensus protocol (ezbft, pbft, zyzzyva, fab; must match the servers)")
	id := fs.Int("id", 0, "client id")
	n := fs.Int("n", 4, "cluster size")
	leader := fs.Int("leader", 0, "replica to submit to (the closest; the primary for primary-based protocols)")
	replicas := fs.String("replicas", "", "comma-separated id=host:port for every replica")
	secret := fs.String("secret", "", "shared HMAC secret (required unless -key is given)")
	keyFile := fs.String("key", "", "ECDSA PEM key bundle file (switches authentication to ECDSA)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-command timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *secret == "" && *keyFile == "" {
		return fmt.Errorf("-secret or -key is required")
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command: put|get|incr|bench")
	}

	addrs := make(map[ezbft.ReplicaID]string)
	for _, part := range strings.Split(*replicas, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad replica entry %q", part)
		}
		var rid int
		if _, err := fmt.Sscanf(kv[0], "%d", &rid); err != nil {
			return err
		}
		addrs[ezbft.ReplicaID(rid)] = kv[1]
	}

	client, err := ezbft.NewTCPClient(ezbft.TCPClientConfig{
		Protocol: ezbft.Protocol(*proto),
		ID:       ezbft.ClientID(*id),
		N:        *n,
		Nearest:  ezbft.ReplicaID(*leader),
		Replicas: addrs,
		Secret:   []byte(*secret),
		KeyFile:  *keyFile,
		OnConnectError: func(rid ezbft.ReplicaID, err error) {
			fmt.Fprintf(os.Stderr, "ezbft-client: R%d unreachable (continuing): %v\n", rid, err)
		},
	})
	if err != nil {
		return err
	}
	defer client.Close()

	execute := func(cmd ezbft.Command) (ezbft.Result, time.Duration, error) {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		start := time.Now()
		res, err := client.Execute(ctx, cmd)
		return res, time.Since(start), err
	}

	switch rest[0] {
	case "put":
		if len(rest) != 3 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		res, lat, err := execute(ezbft.Put(rest[1], []byte(rest[2])))
		if err != nil {
			return err
		}
		fmt.Printf("OK=%v (%.1fms)\n", res.OK, float64(lat)/float64(time.Millisecond))
	case "get":
		if len(rest) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		res, lat, err := execute(ezbft.Get(rest[1]))
		if err != nil {
			return err
		}
		if res.OK {
			fmt.Printf("%q (%.1fms)\n", res.Value, float64(lat)/float64(time.Millisecond))
		} else {
			fmt.Printf("(not found) (%.1fms)\n", float64(lat)/float64(time.Millisecond))
		}
	case "incr":
		if len(rest) != 2 {
			return fmt.Errorf("usage: incr <key>")
		}
		res, lat, err := execute(ezbft.Incr(rest[1]))
		if err != nil {
			return err
		}
		fmt.Printf("OK=%v (%.1fms)\n", res.OK, float64(lat)/float64(time.Millisecond))
	case "bench":
		bfs := flag.NewFlagSet("bench", flag.ContinueOnError)
		count := bfs.Int("count", 100, "number of requests")
		inflight := bfs.Int("inflight", 8, "max commands in flight (1 = closed-loop)")
		if err := bfs.Parse(rest[1:]); err != nil {
			return err
		}
		if err := bench(client, *id, *count, *inflight, *timeout); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown command %q (want put|get|incr|bench)", rest[0])
	}
	st := client.Stats()
	fmt.Printf("client stats: fast=%d slow=%d retries=%d\n", st.FastDecisions, st.SlowDecisions, st.Retries)
	return nil
}

// bench pushes count PUTs through the cluster keeping up to inflight
// commands outstanding — the open-loop client style that saturates the
// ordering replica (and fills its batches, with -batch on the servers).
// The -timeout flag stays per-command: each wait on the window's oldest
// future gets the full budget.
func bench(client *ezbft.Client, id, count, inflight int, timeout time.Duration) error {
	if inflight < 1 {
		inflight = 1
	}
	waitOldest := func(f *ezbft.Future) error {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		_, err := f.Wait(ctx)
		return err
	}
	var total time.Duration
	start := time.Now()
	pending := make([]*ezbft.Future, 0, inflight)
	issued, done := 0, 0
	for done < count {
		for issued < count && len(pending) < inflight {
			key := fmt.Sprintf("bench-%d-%d", id, issued%64)
			f, err := client.Submit(context.Background(), ezbft.Put(key, []byte("x")))
			if err != nil {
				return fmt.Errorf("submit %d: %w", issued, err)
			}
			pending = append(pending, f)
			issued++
		}
		// Resolve the oldest future first; completions may arrive in any
		// order, but draining FIFO keeps the window logic trivial.
		f := pending[0]
		pending = pending[1:]
		if err := waitOldest(f); err != nil {
			return fmt.Errorf("request %d: %w", done, err)
		}
		total += f.Latency()
		done++
	}
	elapsed := time.Since(start)
	fmt.Printf("%d requests (%d in flight) in %.2fs: %.0f req/s, mean latency %.2fms\n",
		count, inflight, elapsed.Seconds(), float64(count)/elapsed.Seconds(),
		float64(total)/float64(count)/float64(time.Millisecond))
	return nil
}
