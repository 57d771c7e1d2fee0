package tcpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// This file covers the send path: a sender encoding the bursts it drains
// into its own buffer, and those bursts arriving whole.

// TestBurstsBetweenNetworksArriveInOrder sends three bursts' worth of
// envelopes from one Network to another, with a 256 KiB PutData in the
// middle that overflows its burst's size cap: every envelope arrives, in
// order, and encodes to the same bytes as the one sent.
func TestBurstsBetweenNetworksArriveInOrder(t *testing.T) {
	const n = 3 * maxWriteBatch
	host, got := receiver(t, n)
	src, err := New("127.0.0.1:0", AddressBook{toB: host.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	a, err := src.Register(fromA, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	sent := make([]wire.Message, n)
	for i := range sent {
		value := fmt.Appendf(nil, "envelope %d", i)
		if i == n/2 {
			value = bigValue(256 << 10)
		}
		sent[i] = wire.PutData{OpID: uint64(i), Tag: tag.Tag{Z: uint64(i), W: 1}, Value: value}
	}
	for _, msg := range sent {
		if err := a.Send(toB, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i, msg := range sent {
		want := wire.EncodeEnvelope(wire.Envelope{From: fromA, To: toB, Msg: msg})
		select {
		case env := <-got:
			if !bytes.Equal(wire.EncodeEnvelope(env), want) {
				t.Fatalf("envelope %d arrived changed or out of order: %.60v", i, env.Msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("envelope %d of %d was not delivered", i, n)
		}
	}
}

// FuzzSendBurst queues fuzzed envelopes, cuts them into bursts with the
// sender's encodeBurst and reads the concatenated bursts back a frame at a
// time through bufio's smallest buffer: what arrives must encode to
// exactly the bytes the originals encode to, and in order. spec is a list
// of [u16 length][envelope] chunks (chunks that do not decode are left
// out); the list is sent repeat%100+1 times, so bursts reach
// maxWriteBatch, with one PutData of big bytes in the middle, so they
// reach readBufferSize. Every burst but the last must have stopped at one
// of the two caps, and only its last frame may carry it past
// readBufferSize.
func FuzzSendBurst(f *testing.F) {
	chunk := func(b []byte) []byte { return append(binary.BigEndian.AppendUint16(nil, uint16(len(b))), b...) }
	var seed []byte
	for _, msg := range []wire.Message{
		wire.PutData{OpID: 1, Value: []byte("v")},
		wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}},
		wire.Broadcast{Origin: fromA, Seq: 3, Inner: wire.CommitTag{Tag: tag.Tag{Z: 2, W: 1}}},
	} {
		seed = append(seed, chunk(wire.EncodeEnvelope(wire.Envelope{From: fromA, To: toB, Msg: msg}))...)
	}
	f.Add(seed, uint8(0), uint16(0))
	f.Add(seed, uint8(maxWriteBatch), uint16(100))   // several bursts cut by count
	f.Add(seed, uint8(2), uint16(readBufferSize+1))  // one frame past the size cap
	f.Add(seed, uint8(99), uint16(readBufferSize/2)) // bursts cut by size
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, spec []byte, repeat uint8, big uint16) {
		var envs []wire.Envelope
		for len(spec) >= 2 {
			n := min(int(binary.BigEndian.Uint16(spec)), len(spec)-2)
			if env, err := wire.DecodeEnvelope(spec[2 : 2+n]); err == nil {
				envs = append(envs, env)
			}
			spec = spec[2+n:]
		}
		var sent []wire.Envelope
		for range int(repeat)%100 + 1 {
			sent = append(sent, envs...)
		}
		sent = slices.Insert(sent, len(sent)/2, wire.Envelope{From: fromA, To: toB,
			Msg: wire.PutData{OpID: 2, Value: bigValue(int(big))}})

		q := make(chan wire.Envelope, len(sent))
		for _, env := range sent[1:] {
			q <- env
		}
		var stream, buf []byte
		for next := sent[0]; ; {
			burst, frames := encodeBurst(buf[:0], next, q)
			last := checkBurst(t, burst, frames)
			more := len(q) > 0
			if more && frames < maxWriteBatch && len(burst) < readBufferSize {
				t.Fatalf("burst of %d frames, %d bytes stopped with %d envelopes still queued", frames, len(burst), len(q))
			}
			if frames > 1 && last >= readBufferSize {
				t.Fatalf("burst took frame %d at byte %d, past readBufferSize", frames, last)
			}
			stream = append(stream, burst...)
			buf = burst
			if !more {
				break
			}
			next = <-q
		}

		got, skipped, end := readFrames(bytes.NewReader(stream), minReadBuffer)
		if skipped != 0 || end != io.EOF {
			t.Fatalf("reading the bursts skipped %d frames and ended with %v", skipped, end)
		}
		if len(got) != len(sent) {
			t.Fatalf("read %d envelopes, sent %d", len(got), len(sent))
		}
		for i := range sent {
			if !bytes.Equal(wire.EncodeEnvelope(got[i]), wire.EncodeEnvelope(sent[i])) {
				t.Fatalf("envelope %d: read %T, sent %T", i, got[i].Msg, sent[i].Msg)
			}
		}
	})
}

// checkBurst walks the length prefixes of one burst, requires exactly
// frames of them filling it, and returns the offset of the last frame.
func checkBurst(t *testing.T, burst []byte, frames int) (last int) {
	t.Helper()
	if frames < 1 || frames > maxWriteBatch {
		t.Fatalf("burst holds %d frames, want 1..%d", frames, maxWriteBatch)
	}
	off := 0
	for i := range frames {
		if len(burst)-off < 4 {
			t.Fatalf("burst ends inside the prefix of frame %d of %d", i+1, frames)
		}
		last = off
		off += 4 + int(binary.BigEndian.Uint32(burst[off:]))
	}
	if off != len(burst) {
		t.Fatalf("%d frames span %d bytes of a %d-byte burst", frames, off, len(burst))
	}
	return last
}
