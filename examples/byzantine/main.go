// Byzantine fault injection: a fail-silent command-leader is detected and
// its instance space retired by the owner-change protocol, while clients
// make progress by retry rotation — and the replicated state stays
// consistent and exactly-once throughout (the paper's §IV-D/E machinery).
// The convergence check runs over the application's Digest, so the same
// experiment works for any Application plugged in via SimConfig.NewApp.
//
// What the silence costs is two timers per client, not one per request. The
// fast path needs all four replicas, so the first two requests of every
// client wait out the slow-path timer for replica 0; after that the client
// commits on the slow path as soon as the other three have answered. The
// client whose own leader is replica 0 (Virginia) pays the longer retry timer
// for its first two requests and sends the rest to the next replica. Of six
// requests per client, two pay: expect means near 570 / 400 / 570 ms where
// the leader is honest and 2.1 s for Virginia, against a slow-path latency of
// some 300-400 ms.
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"log"
	"time"

	"ezbft"
)

func main() {
	// Replica 0 receives requests but never responds (fail-silent).
	cluster, err := ezbft.NewSimCluster(ezbft.SimConfig{
		Protocol:             ezbft.EZBFT,
		ClientsPerRegion:     1,
		MaxRequestsPerClient: 6,
		Seed:                 1,
		Mute:                 map[ezbft.ReplicaID]bool{0: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("replica 0 (Virginia) is byzantine-mute; running 4 clients × 6 requests...")
	cluster.Run(2 * time.Minute)

	fmt.Printf("completed requests: %d/24\n", cluster.Completed())
	for _, s := range cluster.Summaries() {
		fmt.Printf("  %-10s mean %6.1fms  fast-path fraction %.2f\n",
			s.Region, float64(s.Mean)/float64(time.Millisecond), s.FastFraction)
	}

	digests := cluster.StateDigests()
	fmt.Println("replica state digests (correct replicas 1-3 must agree):")
	for i, d := range digests {
		marker := ""
		if i == 0 {
			marker = "  (byzantine — excluded from agreement check)"
		}
		fmt.Printf("  replica %d: %s%s\n", i, d, marker)
	}
	if digests[1] == digests[2] && digests[2] == digests[3] {
		fmt.Println("correct replicas converged despite the faulty command-leader.")
	} else {
		fmt.Println("DIVERGENCE — this would be a protocol bug.")
	}
}
