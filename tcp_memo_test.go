package ezbft

import (
	"fmt"
	"testing"
	"time"

	"ezbft/internal/codec"
)

// TestTCPReplicasGetTheirOwnReplyBack: a client sends each replica the
// certificate around the SPECREPLY that replica sent, so the replica's
// memo hands back the value it already holds instead of decoding the reply
// and its SPECORDER again. Four replicas serve requests on the fast path
// (COMMITFAST), then three serve requests with R3 down (compact COMMIT);
// in each phase every live replica decodes every certificate through its
// memo and finds its own reply in at least 95 % of them (all of them, but
// for a request whose COMMIT a late reply left it out of).
//
// The fast-path phase's client waits 10 s for a reply before it settles for
// a slow quorum: with the default 500 ms, a host stall of that length twice
// in a row marks a replica silent, and the COMMITs sent without waiting for
// it, which it did not sign, cannot carry its reply. With R3 down, the
// client's slow quorum is the three live replicas, so every COMMIT carries
// each one's reply whatever the bound.
func TestTCPReplicasGetTheirOwnReplyBack(t *testing.T) {
	replicas, addrs := startTCPCluster(t, 0)
	const requests = 100
	want := NewKVStore()
	before := make([]codec.MemoStats, len(replicas))
	phase := func(name string, first int, live []*TCPReplica, bound time.Duration) ClientStats {
		t.Helper()
		client, err := NewTCPClient(TCPClientConfig{ID: ClientID(first), Replicas: addrs, Secret: []byte("silent"), LatencyBound: bound})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for i := range live {
			before[i] = live[i].memoStats()
		}
		for i := first; i < first+requests; i++ {
			cmd := Put(fmt.Sprintf("k%d", i), []byte("v"))
			want.Apply(cmd)
			if _, err := client.Execute(t.Context(), cmd); err != nil {
				t.Fatalf("%s, request %d: %v", name, i, err)
			}
		}
		for i, rep := range live {
			// Executing a request needs its certificate: once the digest is
			// reached, every certificate has been decoded.
			waitForDigest(t, rep, want.Digest().String())
			st := rep.memoStats()
			hits, misses := st.SentHits-before[i].SentHits, st.SentMisses-before[i].SentMisses
			if hits+misses < requests || float64(hits) < 0.95*float64(hits+misses) {
				t.Errorf("%s: R%d found its own reply in %d of %d certificates, want at least 95 %% of %d or more",
					name, i, hits, hits+misses, requests)
			} else {
				t.Logf("%s: R%d found its own reply in %d of %d certificates", name, i, hits, hits+misses)
			}
		}
		return client.Stats()
	}
	if st := phase("fast path", 0, replicas, 10*time.Second); st.FastDecisions < requests/2 {
		t.Fatalf("only %d of %d requests took the fast path: %+v", st.FastDecisions, requests, st)
	}
	if err := replicas[3].Close(); err != nil {
		t.Fatal(err)
	}
	if st := phase("R3 down", requests, replicas[:3], 0); st.SlowDecisions < requests {
		t.Fatalf("%d slow decisions with R3 down for %d requests: %+v", st.SlowDecisions, requests, st)
	}
}
