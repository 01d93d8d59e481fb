package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ezbft/internal/codec"
	"ezbft/internal/race"
	"ezbft/internal/types"
)

// specOrderBytes is a SPECORDER's encoding without its tag: the span a
// reply or certificate embeds it as.
func specOrderBytes(so *SpecOrder) []byte {
	w := codec.NewWriter(256)
	so.MarshalTo(w)
	return w.Bytes()
}

// batchedSpecOrder is fastPathFrames' SPECORDER ordering two more requests.
func batchedSpecOrder() *SpecOrder {
	so, _, _ := fastPathFrames()
	for i := 0; i < 2; i++ {
		r := so.Req.Clone()
		r.Cmd.Timestamp += uint64(i + 1)
		so.Batch = append(so.Batch, r)
	}
	return so
}

// specReplyBytes is a SPECREPLY's encoding without its tag: the span a
// replica's transport keeps it under when it sends it, and a certificate
// carries it as.
func specReplyBytes(sr *SpecReply) []byte {
	w := codec.NewWriter(512)
	sr.MarshalTo(w)
	return w.Bytes()
}

// TestMemoizedDecodeAllocations: once a node holds a SPECORDER (from the
// first reply that embedded it), a SPECREPLY
// embedding it decodes to the message and its signature, a COMMITFAST to the
// message, its certificate slice and reply, the reply's signature, the
// signer list and 3 signatures — the SPECORDER's 5 objects are gone from
// both (TestFastPathDecodeAllocations counts them without a memo) and the
// reply points at the very value the node holds. A certificate tailored to
// the decoding replica, whose memo holds the reply it sent, allocates no
// SPECREPLY and no SPECORDER: a COMMITFAST decodes to the message, its
// certificate slice, the signer list and 3 signatures, a compact COMMIT to
// the message and the client's signature, the certificate slice, the signer
// list and 2 signatures, and both carry the very reply the replica sent.
func TestMemoizedDecodeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, replies, cf := fastPathFrames()
	memo := codec.NewMemo()
	m, err := memo.Unmarshal(codec.Marshal(replies[0]))
	if err != nil {
		t.Fatal(err)
	}
	held := m.(*SpecReply).SO
	sent := replies[1] // what replica 1, the decoding node, sent
	memo.Sent.Store(specReplyBytes(sent), sent)
	compact := &Commit{
		Client: sent.Client, Timestamp: sent.Timestamp, Inst: sent.Inst, Seq: sent.Seq,
		Cert: replies[:1], Sigs: cf.Sigs[:2], Sig: bytes.Repeat([]byte{0x5A}, 32),
	}
	self := types.ReplicaNode(sent.Replica)
	for _, tc := range []struct {
		name  string
		frame []byte
		want  float64
	}{
		{"SPECREPLY", codec.Marshal(replies[1]), 2},
		{"COMMITFAST", codec.Marshal(cf), 8},
		{"COMMITFAST carrying the replica's own reply", codec.AppendMarshalFor(nil, cf, self), 6},
		{"compact COMMIT carrying the replica's own reply", codec.AppendMarshalFor(nil, compact, self), 6},
	} {
		frame := tc.frame
		got := testing.AllocsPerRun(200, func() {
			if _, err := memo.Unmarshal(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("decoding a %s through a warm memo allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}
	out, err := memo.Unmarshal(codec.Marshal(replies[2]))
	if err != nil {
		t.Fatal(err)
	}
	if reply := out.(*SpecReply); reply.SO != held {
		t.Error("the SPECREPLY's SPECORDER is not the value the memo holds")
	}
	out, err = memo.Unmarshal(codec.Marshal(cf))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*CommitFast).Cert[0].SO; got != held {
		t.Error("the COMMITFAST's SPECORDER is not the value the memo holds")
	}
	for _, msg := range []codec.Message{cf, compact} {
		out, err := memo.Unmarshal(codec.AppendMarshalFor(nil, msg, self))
		if err != nil {
			t.Fatal(err)
		}
		if cert, _ := out.(certified).certificate(); cert[0] != sent {
			t.Errorf("the %T tailored to replica 1 does not carry the reply it sent", msg)
		}
	}
}

// TestMemoExactBytes: a hit needs the held span's exact bytes. Every
// single-byte change to the SPECORDER a SPECREPLY embeds, with the original
// held from an earlier reply, either fails to decode or decodes to a new
// value that re-marshals to the changed bytes; the held value is never
// returned for them.
func TestMemoExactBytes(t *testing.T) {
	for _, so := range []*SpecOrder{sampleSpecOrder(), batchedSpecOrder()} {
		reply := sampleSpecReply()
		reply.SO = so
		if len(so.Batch) > 0 {
			reply.Batched, reply.SORef = true, so.CmdDigest
		}
		frame := codec.Marshal(reply)
		memo := codec.NewMemo()
		m, err := memo.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		held := m.(*SpecReply).SO
		span := specOrderBytes(so)
		start := len(frame) - len(span) // the SPECORDER ends the frame
		if !bytes.Equal(frame[start:], span) {
			t.Fatal("the SPECREPLY does not end with its SPECORDER")
		}
		changed, decoded := 0, 0
		for i := start; i < len(frame); i++ {
			orig := frame[i]
			for v := 0; v < 256; v++ {
				if byte(v) == orig {
					continue
				}
				frame[i] = byte(v)
				changed++
				out, err := memo.Unmarshal(frame)
				if err != nil {
					continue
				}
				decoded++
				got := out.(*SpecReply).SO
				if got == held {
					t.Fatalf("byte %d of the span set to %#x: the held SPECORDER was returned", i-start, v)
				}
				if !bytes.Equal(specOrderBytes(got), frame[start:]) {
					t.Fatalf("byte %d of the span set to %#x: decoded SPECORDER re-marshals to other bytes", i-start, v)
				}
			}
			frame[i] = orig
		}
		out, err := memo.Unmarshal(frame)
		if err != nil || !bytes.Equal(specOrderBytes(out.(*SpecReply).SO), span) {
			t.Fatalf("the unchanged SPECREPLY decodes to another SPECORDER (err %v)", err)
		}
		t.Logf("%d-byte span (batch of %d): %d changes, %d decoded", len(span), so.BatchSize(), changed, decoded)
	}
}

// TestMemoConcurrentDecoders: four goroutines decode overlapping SPECORDER,
// SPECREPLY and COMMITFAST frames, the COMMITFASTs also tailored to replica
// 1, through one memo, each in its own order, while a fifth stores replica
// 1's replies as its transport does when it sends them; every message
// re-marshals to its frame. Run it under the race detector.
func TestMemoConcurrentDecoders(t *testing.T) {
	var frames, sent [][]byte
	var sentReplies []*SpecReply
	for k := 0; k < 24; k++ {
		so, replies, cf := fastPathFrames()
		so.Inst.Slot += uint64(k)
		if k%3 == 0 {
			so = batchedSpecOrder()
			so.Inst.Slot += uint64(k)
			for _, sr := range replies {
				sr.Batched, sr.SORef = true, so.CmdDigest
			}
		}
		for _, sr := range replies {
			sr.SO = so
		}
		frames = append(frames, codec.Marshal(so), codec.Marshal(cf), codec.AppendMarshalFor(nil, cf, types.ReplicaNode(1)))
		for _, sr := range replies {
			frames = append(frames, codec.Marshal(sr))
		}
		sent, sentReplies = append(sent, specReplyBytes(replies[1])), append(sentReplies, replies[1])
	}
	memo := codec.NewMemo()
	const workers, rounds = 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < rounds; round++ {
			for j := range sent {
				memo.Sent.Store(sent[j], sentReplies[j])
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for j := range frames {
					frame := frames[(j*(w+1)+round)%len(frames)]
					m, err := memo.Unmarshal(frame)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(codec.Marshal(m), frame) {
						errs <- fmt.Errorf("worker %d: %T re-marshals to other bytes", w, m)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// memoSpanLimit is the longest span a codec.Memo keeps (codec's
// maxMemoSpan); a longer one is never recalled.
const memoSpanLimit = 1 << 10

// checkHeldSpan pins what matching held bytes as a prefix rests on, for a
// value v the decoder read from data as its first n bytes: v re-marshals to
// exactly those bytes (enc); the span alone decodes to the same n bytes
// (decode), so what follows a span never changes where it ends; and a memo
// table holding v under the span recalls v from data and moves the reader
// past exactly n bytes.
func checkHeldSpan(t *testing.T, data []byte, n int, v codec.Message, table *codec.MemoTable,
	enc func(codec.Message) []byte, decode func(*codec.Reader) (codec.Message, error)) {
	t.Helper()
	span := data[:n]
	if !bytes.Equal(enc(v), span) {
		t.Fatalf("accepted %x re-marshals to %x", span, enc(v))
	}
	alone := codec.NewReader(span)
	if _, err := decode(alone); err != nil || alone.Offset() != n {
		t.Fatalf("span %x alone: consumed %d of %d bytes, err %v", span, alone.Offset(), n, err)
	}
	table.Store(span, v)
	r := codec.NewReader(data)
	got := table.Recall(r, v.Tag())
	switch {
	case got == nil && n <= memoSpanLimit:
		t.Fatalf("memo holding %x does not recall it from %x", span, data)
	case got != nil && got != v:
		t.Fatalf("memo recalled a %T other than the value it holds", got)
	case got != nil && r.Offset() != n:
		t.Fatalf("decoder consumed %d bytes, memo recall %d", n, r.Offset())
	case got == nil && r.Offset() != 0:
		t.Fatalf("missed recall moved the reader %d bytes", r.Offset())
	}
}

// FuzzSpecOrderSpan pins the span a memoized decode holds a SPECORDER under
// against the decoder itself: whatever the decoder accepts re-marshals to
// the bytes it consumed, those bytes alone decode to the same span, and a
// memo holding the value under that span recalls it from the input and
// consumes exactly the bytes the decoder did.
func FuzzSpecOrderSpan(f *testing.F) {
	so, _, _ := fastPathFrames()
	f.Add(specOrderBytes(so), false)
	f.Add(specOrderBytes(batchedSpecOrder()), true)
	f.Add(specOrderBytes(sampleSpecOrder()), false)
	f.Fuzz(func(t *testing.T, data []byte, batched bool) {
		decode := func(r *codec.Reader) (codec.Message, error) { return decodeSpecOrder(r, batched) }
		dr := codec.NewReader(data)
		got, err := decodeSpecOrder(dr, batched)
		if err != nil {
			return
		}
		enc := func(m codec.Message) []byte { return specOrderBytes(m.(*SpecOrder)) }
		checkHeldSpan(t, data, dr.Offset(), got, &codec.NewMemo().Decoded, enc, decode)
	})
}

// FuzzSpecReplySpan pins the span a replica's memo holds a sent reply under
// against the decoder a certificate's carried reply goes through, for both
// layouts, with and without the SPECORDER: whatever the decoder accepts
// re-marshals to the bytes it consumed, those bytes alone decode to the
// same span, and a memo holding the value under that span recalls it from
// the input and consumes exactly the bytes the decoder did.
func FuzzSpecReplySpan(f *testing.F) {
	so, replies, _ := fastPathFrames()
	bare := *replies[1]
	bare.SO = nil
	batched := *replies[2]
	batched.SO = batchedSpecOrder()
	batched.Batched, batched.BatchIdx, batched.SORef = true, 0, batched.SO.CmdDigest
	slimmed := batched
	slimmed.SO, slimmed.BatchIdx = nil, 2
	withDeps := sampleSpecReply()
	withDeps.SO = so
	f.Add(specReplyBytes(replies[1]), false)
	f.Add(specReplyBytes(&bare), false)
	f.Add(specReplyBytes(withDeps), false)
	f.Add(specReplyBytes(&batched), true)
	f.Add(specReplyBytes(&slimmed), true)
	f.Fuzz(func(t *testing.T, data []byte, batched bool) {
		decode := func(r *codec.Reader) (codec.Message, error) { return decodeSpecReplyFmt(r, batched, true) }
		dr := codec.NewReader(data)
		got, err := decodeSpecReplyFmt(dr, batched, true)
		if err != nil {
			return
		}
		enc := func(m codec.Message) []byte { return specReplyBytes(m.(*SpecReply)) }
		checkHeldSpan(t, data, dr.Offset(), got, &codec.NewMemo().Sent, enc, decode)
	})
}

// FuzzMemoDecode: a frame decoded through a warm memo re-marshals to the
// bytes a decode without one does, or fails with the same error. The memo
// holds what replica 1 would hold once it decoded one reply and sent
// another: the unbatched SPECORDER of fastPathFrames and replica 1's reply
// to it. The seeds include frames of the batched layouts whose bytes begin
// with those held spans: a batched SPECREPLY whose SPECORDER extends the
// held one with more requests, and a batched COMMITFAST carrying replica
// 1's unbatched reply bytes.
func FuzzMemoDecode(f *testing.F) {
	_, replies, cf := fastPathFrames()
	warm := func(t *testing.T) *codec.Memo {
		memo := codec.NewMemo()
		if _, err := memo.Unmarshal(codec.Marshal(replies[0])); err != nil {
			t.Fatal(err)
		}
		memo.Sent.Store(specReplyBytes(replies[1]), replies[1])
		return memo
	}
	self := types.ReplicaNode(1)
	batched := *replies[2]
	batched.SO = batchedSpecOrder()
	batched.Batched, batched.SORef = true, batched.SO.CmdDigest
	tailored := codec.AppendMarshalFor(nil, cf, self)
	compact := &Commit{
		Client: cf.Client, Timestamp: replies[1].Timestamp, Inst: cf.Inst, Seq: replies[1].Seq,
		Cert: replies[:1], Sigs: cf.Sigs[:2], Sig: bytes.Repeat([]byte{0x5A}, 32),
	}
	for _, frame := range [][]byte{
		codec.Marshal(replies[2]),
		codec.Marshal(cf),
		tailored,
		codec.AppendMarshalFor(nil, compact, self),
		codec.Marshal(&batched),
		append([]byte{tagCommitFastBatch}, tailored[1:]...),
	} {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		want, werr := codec.Unmarshal(frame)
		got, gerr := warm(t).Unmarshal(frame)
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Fatalf("%x: without a memo %v, with one %v", frame, werr, gerr)
			}
		case !bytes.Equal(marshaled(got), marshaled(want)):
			t.Fatalf("%x decodes through the memo to a %T that re-marshals to other bytes", frame, got)
		}
	})
}

// marshaled is m's encoding, or nil where m cannot be marshaled: a batched
// POM decodes without its SPECORDERs, which replicas drop unread.
func marshaled(m codec.Message) (b []byte) {
	defer func() {
		if recover() != nil {
			b = nil
		}
	}()
	return codec.Marshal(m)
}
