package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/types"
)

// signedBody returns the bytes m's signature covers.
func signedBody(m interface{ MarshalBody(*codec.Writer) }) string {
	w := codec.NewWriter(64)
	m.MarshalBody(w)
	return string(w.Bytes())
}

func sampleRequest() *Request {
	return &Request{
		Cmd: types.Command{
			Client: 3, Timestamp: 7, Op: types.OpPut, Key: "k", Value: []byte("v"),
		},
		Orig: 2,
		Sig:  []byte{1, 2, 3},
	}
}

func sampleSpecOrder() *SpecOrder {
	return &SpecOrder{
		Owner:     5,
		Inst:      types.InstanceID{Space: 1, Slot: 9},
		Deps:      types.NewInstanceSet(types.InstanceID{Space: 0, Slot: 4}),
		Seq:       11,
		LogHash:   types.Digest{1},
		CmdDigest: types.Digest{2},
		Req:       *sampleRequest(),
		Sig:       []byte{9, 9},
	}
}

func sampleSpecReply() *SpecReply {
	return &SpecReply{
		Owner:     5,
		Inst:      types.InstanceID{Space: 1, Slot: 9},
		Deps:      types.NewInstanceSet(types.InstanceID{Space: 2, Slot: 1}),
		Seq:       12,
		CmdDigest: types.Digest{2},
		Client:    3,
		Timestamp: 7,
		Replica:   2,
		Result:    types.Result{OK: true, Value: []byte("out")},
		SO:        sampleSpecOrder(),
		Sig:       []byte{4},
	}
}

// roundTrip encodes and decodes a message through the codec registry.
func roundTrip(t *testing.T, m codec.Message) codec.Message {
	t.Helper()
	out, err := codec.Unmarshal(codec.Marshal(m))
	if err != nil {
		t.Fatalf("round trip of %T: %v", m, err)
	}
	return out
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []codec.Message{
		sampleRequest(),
		sampleSpecOrder(),
		sampleSpecReply(),
		fastCert(4, false),
		&Commit{
			Client: 3, Timestamp: 7, Inst: types.InstanceID{Space: 1, Slot: 9},
			Deps: types.NewInstanceSet(types.InstanceID{Space: 0, Slot: 2}),
			Seq:  4, Cert: []*SpecReply{sampleSpecReply()}, Sig: []byte{8},
		},
		&CommitReply{Inst: types.InstanceID{Space: 1, Slot: 9}, CmdDigest: types.Digest{3}, Replica: 1, Result: types.Result{OK: true}, Sig: []byte{1}},
		&ResendReq{Req: *sampleRequest(), Replica: 2},
		&StartOwnerChange{Suspect: 1, Owner: 1, Replica: 3, Sig: []byte{5}},
		&OwnerChange{
			Suspect: 1, NewOwner: 2, Replica: 3,
			History: []HistEntry{{
				Inst: types.InstanceID{Space: 1, Slot: 1}, Status: HistSpecOrdered,
				Cmd:  types.Command{Client: 3, Timestamp: 1, Op: types.OpPut, Key: "x"},
				Deps: types.NewInstanceSet(), Seq: 1, Owner: 1, SO: sampleSpecOrder(),
			}},
			Sig: []byte{6},
		},
		&NewOwnerMsg{
			Suspect: 1, NewOwnerNum: 2, Replica: 2,
			Proof: []*OwnerChange{
				{Suspect: 1, NewOwner: 2, Replica: 3, Sig: []byte{6}},
				{
					Suspect: 1, NewOwner: 2, Replica: 0, Mark: 8, Digest: types.Digest{9},
					Votes: []*CheckpointMsg{{Space: 1, Slot: 8, Digest: types.Digest{9}, Replica: 1, Sig: []byte{2}}},
					Sig:   []byte{3},
				},
			},
			Sig: []byte{7},
		},
		&POM{Suspect: 1, Owner: 1, Client: 3, A: sampleSpecOrder(), B: sampleSpecOrder()},
	}
	for _, m := range msgs {
		out := roundTrip(t, m)
		// Re-encode: identical bytes prove the decode captured everything.
		if string(codec.Marshal(out)) != string(codec.Marshal(m)) {
			t.Errorf("%T: round trip not byte-identical", m)
		}
	}
}

// certOf builds n replies from replicas 0..n-1 that each embed their own
// copy of the same SPECORDER, the way a client collects them off the wire.
func certOf(n int, batched bool) []*SpecReply {
	cert := make([]*SpecReply, n)
	for i := range cert {
		sr := sampleSpecReply()
		sr.Replica = types.ReplicaID(i)
		sr.Sig = []byte{byte(i), 4}
		if batched {
			sr.SO.Batch = []Request{*sampleRequest(), *sampleRequest()}
			sr.Batched, sr.SORef = true, sr.SO.CmdDigest
		}
		cert[i] = sr
	}
	return cert
}

// fastCertOf builds the COMMITFAST a client makes of matching replies: the
// first as it is, the others' signatures.
func fastCertOf(client types.ClientID, replies []*SpecReply) *CommitFast {
	m := &CommitFast{Client: client, Inst: replies[0].Inst, Cert: replies[:1]}
	for _, sr := range replies[1:] {
		m.Sigs = append(m.Sigs, ReplySig{Replica: sr.Replica, Sig: sr.Sig})
	}
	return m
}

func fastCert(n int, batched bool) *CommitFast { return fastCertOf(3, certOf(n, batched)) }

// certificateFrames is one message per certificate tag (13, 14, 23, 24, 67,
// 68) and an owner-change history embedding a COMMIT in either form, each
// built from replies that all embed the SPECORDER.
func certificateFrames() map[string]codec.Message {
	inst := types.InstanceID{Space: 1, Slot: 9}
	commit := func(cert []*SpecReply) *Commit {
		return &Commit{Client: 3, Timestamp: 7, Inst: inst, Deps: types.NewInstanceSet(), Seq: 4, Cert: cert, Sig: []byte{8}}
	}
	compact := func(cert []*SpecReply) *Commit {
		cf := fastCertOf(3, cert)
		c := commit(cf.Cert)
		c.Sigs = cf.Sigs
		return c
	}
	history := func(c *Commit) *OwnerChange {
		return &OwnerChange{Suspect: 1, NewOwner: 2, Replica: 3, Sig: []byte{6}, History: []HistEntry{{
			Inst: inst, Status: HistCommitted, Deps: types.NewInstanceSet(), Seq: 4, Owner: 1, ClientCommit: c,
		}}}
	}
	return map[string]codec.Message{
		"commitfast":                  fastCert(4, false),
		"commit":                      commit(certOf(3, false)),
		"commitfast-batched":          fastCert(4, true),
		"commit-batched":              commit(certOf(3, true)),
		"commit-compact":              compact(certOf(3, false)),
		"commit-compact-batched":      compact(certOf(3, true)),
		"ownerchange-history":         history(commit(certOf(3, false))),
		"ownerchange-history-compact": history(compact(certOf(3, true))),
	}
}

// TestCertCarriesOneSpecOrder: whatever its replies held in memory, a
// certificate travels with one SPECORDER — its first reply's — and every
// signer: a COMMITFAST or compact COMMIT decodes to one reply plus the other
// signers' pairs, a full COMMIT to its 2f+1 replies with the later ones
// bare, and all re-marshal to the bytes they came from.
func TestCertCarriesOneSpecOrder(t *testing.T) {
	for name, m := range certificateFrames() {
		out := roundTrip(t, m)
		var cert []*SpecReply
		var sigs []ReplySig
		switch d := out.(type) {
		case *CommitFast:
			cert, sigs = d.certificate()
		case *Commit:
			cert, sigs = d.certificate()
		case *OwnerChange:
			cert, sigs = d.History[0].ClientCommit.certificate()
		}
		if len(sigs) > 0 {
			if len(cert) != 1 {
				t.Fatalf("%s: decoded %d replies beside %d signer pairs, want 1", name, len(cert), len(sigs))
			}
			for i, s := range sigs {
				if s.Replica != types.ReplicaID(i+1) || len(s.Sig) != 2 || s.Sig[0] != byte(i+1) {
					t.Errorf("%s: signer %d decoded as replica %d with signature %v", name, i+1, s.Replica, s.Sig)
				}
			}
		} else if len(cert) != 3 {
			t.Fatalf("%s: decoded %d replies and no signer pairs, want 3 replies", name, len(cert))
		}
		for i, sr := range cert {
			if sr.Replica != types.ReplicaID(i) {
				t.Errorf("%s: reply %d decoded as replica %d", name, i, sr.Replica)
			}
			if (sr.SO != nil) != (i == 0) {
				t.Errorf("%s: reply %d: embedded SPECORDER present=%v", name, i, sr.SO != nil)
			}
		}
		if string(codec.Marshal(out)) != string(codec.Marshal(m)) {
			t.Errorf("%s: round trip not byte-identical", name)
		}
	}

	// A batched reply past position 0 never had a SPECORDER; none appears.
	slim := fastCert(4, true)
	slim.Cert[0].SO = nil
	if out := roundTrip(t, slim).(*CommitFast); out.Cert[0].SO != nil || len(out.Sigs) != 3 {
		t.Error("slimmed COMMITFAST gained a SPECORDER or lost a signer")
	}
}

// TestFullCommitBytesUnchanged: a COMMIT whose replies travel whole, on its
// own (tags 14 and 24) or inside a history entry (marker 1), encodes to the
// bytes it did before the compact form existed, so COMMITs already stored in
// WAL records, snapshots and histories keep decoding to the same values. The
// digests are of certificateFrames' encodings taken before that change; the
// history's is of its entry alone, which an OWNERCHANGE, a state-transfer
// suffix and a WAL record all embed.
func TestFullCommitBytesUnchanged(t *testing.T) {
	frames := certificateFrames()
	w := codec.NewWriter(256)
	frames["ownerchange-history"].(*OwnerChange).History[0].marshalTo(w)
	for name, want := range map[string]string{
		"commit":         "d87efca29e7b8de973d1e4a202b5c893357be274ff7f94934948d51e8fec0170",
		"commit-batched": "d28a66fc29f3b1bc1e237ddd6550d9af1aeea5705c71ffce7f30da98287f27df",
		"history-entry":  "b5a644cdfeddbf53cc958a69d229dd64a65337b51424eeaf5923cef7c70753f7",
	} {
		enc := w.Bytes()
		if m, ok := frames[name]; ok {
			enc = codec.Marshal(m)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != want {
			t.Errorf("%s encodes to bytes with digest %s, want %s", name, got, want)
		}
	}
}

func TestSpecReplyMatchesSemantics(t *testing.T) {
	a := sampleSpecReply()
	b := sampleSpecReply()
	if !a.Matches(b) {
		t.Fatal("identical replies do not match")
	}
	b.Deps = types.NewInstanceSet() // dependency sets differ
	if a.Matches(b) {
		t.Fatal("replies with different deps matched")
	}
	b = sampleSpecReply()
	b.Result = types.Result{OK: false}
	if a.Matches(b) {
		t.Fatal("replies with different results matched")
	}
	b = sampleSpecReply()
	b.Replica = 9 // sender identity is NOT part of matching
	if !a.Matches(b) {
		t.Fatal("sender identity should not affect matching")
	}
}

func TestSignedBodyExcludesSignature(t *testing.T) {
	so := sampleSpecOrder()
	body1 := signedBody(so)
	so.Sig = []byte{0xAA, 0xBB}
	body2 := signedBody(so)
	if body1 != body2 {
		t.Fatal("signature bytes leaked into the signed body")
	}
	// But the instance number is covered.
	so.Inst.Slot++
	if signedBody(so) == body1 {
		t.Fatal("instance not covered by signature")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	frames := certificateFrames()
	frames["specreply"] = sampleSpecReply()
	for name, m := range frames {
		full := codec.Marshal(m)
		for cut := 1; cut < len(full); cut++ {
			if _, err := codec.Unmarshal(full[:cut]); err == nil {
				t.Fatalf("%s truncated at %d of %d accepted", name, cut, len(full))
			}
		}
	}
}

func TestSlowQuorumMembers(t *testing.T) {
	got := SlowQuorumMembers(2, 4)
	want := []types.ReplicaID{2, 3, 0}
	if len(got) != len(want) {
		t.Fatalf("quorum %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quorum %v, want %v", got, want)
		}
	}
	if len(SlowQuorumMembers(0, 7)) != 5 {
		t.Fatal("2f+1 for n=7 should be 5")
	}
}

func TestQuorumSizes(t *testing.T) {
	cases := []struct{ n, f, fast, slow, weak int }{
		{4, 1, 4, 3, 2},
		{7, 2, 7, 5, 3},
		{10, 3, 10, 7, 4},
	}
	for _, tc := range cases {
		if F(tc.n) != tc.f || FastQuorum(tc.n) != tc.fast || SlowQuorum(tc.n) != tc.slow || WeakQuorum(tc.n) != tc.weak {
			t.Errorf("n=%d: got f=%d fast=%d slow=%d weak=%d", tc.n, F(tc.n), FastQuorum(tc.n), SlowQuorum(tc.n), WeakQuorum(tc.n))
		}
	}
}

func TestReplicaConfigValidation(t *testing.T) {
	if _, err := NewReplica(ReplicaConfig{N: 5}); err == nil {
		t.Fatal("accepted N=5")
	}
	if _, err := NewReplica(ReplicaConfig{N: 4, Self: 9}); err == nil {
		t.Fatal("accepted out-of-range self")
	}
	if _, err := NewReplica(ReplicaConfig{N: 4, Self: 0}); err == nil {
		t.Fatal("accepted nil app")
	}
	if _, err := NewClient(ClientConfig{N: 4, Leader: 9}); err == nil {
		t.Fatal("client accepted bad leader")
	}
}

// certTags are the certificate-carrying frames FuzzCommitCert decodes:
// COMMITFAST, COMMIT in the full and the compact form, each unbatched and
// batched.
var certTags = []uint8{tagCommitFast, tagCommitFastBatch, tagCommit, tagCommitBatch, tagCommitCompact, tagCommitCompactBatch}

// FuzzCommitCert: decoding any certificate frame never panics, what decodes
// re-marshals to the same bytes, and a compact COMMIT decodes only with
// exactly one reply and one to maxSigners signer pairs. The seed corpus
// (testdata/fuzz/FuzzCommitCert) holds compact frames at those bounds: no
// reply, two replies, no signer pair and maxSigners+1 of them, all refused,
// and maxSigners, accepted; and a batched COMMIT of no replies, which would
// re-marshal under the unbatched tag and is refused too.
func FuzzCommitCert(f *testing.F) {
	for _, m := range certificateFrames() {
		frame := codec.Marshal(m)
		if i := slices.Index(certTags, frame[0]); i >= 0 {
			f.Add(uint8(i), frame[1:])
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		frame := append([]byte{certTags[int(kind)%len(certTags)]}, body...)
		m, err := codec.Unmarshal(frame)
		if err != nil {
			return
		}
		if got := codec.Marshal(m); !bytes.Equal(got, frame) {
			t.Fatalf("certificate accepted from %x re-marshals to %x", frame, got)
		}
		if c, ok := m.(*Commit); ok && (frame[0] == tagCommitCompact || frame[0] == tagCommitCompactBatch) &&
			(len(c.Cert) != 1 || len(c.Sigs) == 0 || len(c.Sigs) > maxSigners) {
			t.Fatalf("compact COMMIT decoded with %d replies and %d signer pairs", len(c.Cert), len(c.Sigs))
		}
	})
}
