package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// This file covers the buffered receive path: readFrame parsing frames out
// of a connection's read buffer however the bytes are cut into reads.

// readFrames runs readFrame over r the way readLoop does, with a read
// buffer of bufSize bytes, until a frame fails for good. It returns what it
// delivered, how many undecodable frames it skipped and the error that
// ended the stream.
func readFrames(r io.Reader, bufSize int) (envs []wire.Envelope, skipped int, end error) {
	br := bufio.NewReaderSize(r, bufSize)
	for {
		env, err := readFrame(br)
		switch {
		case err == nil:
			envs = append(envs, env)
		case errors.Is(err, errSkipFrame):
			skipped++
		default:
			return envs, skipped, err
		}
	}
}

// splitFrames is the reference reader: it walks a whole stream held in
// memory, with no buffering and no short reads. oversize reports that the
// stream ended at a length prefix over maxFrameSize; otherwise it ended
// cleanly or with a torn frame.
func splitFrames(stream []byte) (envs []wire.Envelope, skipped int, oversize bool) {
	for len(stream) >= 4 {
		size := binary.BigEndian.Uint32(stream)
		if size > maxFrameSize {
			return envs, skipped, true
		}
		if uint64(len(stream)-4) < uint64(size) {
			break // torn
		}
		body := append([]byte(nil), stream[4:4+size]...)
		stream = stream[4+size:]
		env, err := wire.DecodeEnvelopeAlias(body)
		if err != nil {
			skipped++
			continue
		}
		envs = append(envs, env)
	}
	return envs, skipped, false
}

// checkReadFrames reads stream through each reader shape, with a read
// buffer of bufSize bytes, and requires the reference reader's result from
// all of them.
func checkReadFrames(t *testing.T, stream []byte, bufSize int) {
	t.Helper()
	want, wantSkipped, wantOversize := splitFrames(stream)
	for _, rc := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(stream)},
		{"one-byte", iotest.OneByteReader(bytes.NewReader(stream))},
		{"half", iotest.HalfReader(bytes.NewReader(stream))},
	} {
		envs, skipped, end := readFrames(rc.r, bufSize)
		if !reflect.DeepEqual(envs, want) {
			t.Fatalf("%s reader: delivered %d envelopes that differ from the reference's %d", rc.name, len(envs), len(want))
		}
		if skipped != wantSkipped {
			t.Fatalf("%s reader: skipped %d frames, want %d", rc.name, skipped, wantSkipped)
		}
		if oversize := errors.Is(end, ErrFrameSize); oversize != wantOversize {
			t.Fatalf("%s reader: ended with %v, oversize want %v", rc.name, end, wantOversize)
		}
		if !wantOversize && end != io.EOF && end != io.ErrUnexpectedEOF {
			t.Fatalf("%s reader: ended with %v, want EOF", rc.name, end)
		}
	}
}

var (
	fromA = wire.ProcID{Role: wire.RoleL1, Index: 0}
	toB   = wire.ProcID{Role: wire.RoleL1, Index: 1}
)

// putFrame is one framed PutData from fromA to toB.
func putFrame(opID uint64, value []byte) []byte {
	return appendFrame(nil, wire.Envelope{From: fromA, To: toB,
		Msg: wire.PutData{OpID: opID, Tag: tag.Tag{Z: opID, W: 1}, Value: value}})
}

// unknownKindFrame is a well-framed envelope whose kind byte this binary
// does not know (a newer peer in a mixed-version fleet): the From+To of a
// valid frame (4 bytes: two 1-byte roles with 1-byte varint indices), then
// an unregistered kind byte and junk.
func unknownKindFrame(valid []byte) []byte {
	body := append(append([]byte{}, valid[4:8]...), 0xEE, 0x01, 0x02)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// bigValue is n bytes that no shifted or truncated copy matches.
func bigValue(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i*7 + i>>8)
	}
	return v
}

// receiver hosts toB on a fresh network and returns what it receives.
func receiver(t *testing.T, buffered int) (*Network, chan wire.Envelope) {
	t.Helper()
	host, err := New("127.0.0.1:0", AddressBook{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { host.Close() })
	got := make(chan wire.Envelope, buffered)
	if _, err := host.Register(toB, func(env wire.Envelope) { got <- env }); err != nil {
		t.Fatal(err)
	}
	return host, got
}

// expectPut waits for the next delivery and requires a PutData carrying
// value.
func expectPut(t *testing.T, got chan wire.Envelope, value []byte) {
	t.Helper()
	select {
	case env := <-got:
		pd, ok := env.Msg.(wire.PutData)
		if !ok || !bytes.Equal(pd.Value, value) {
			t.Fatalf("delivered %T (value %.40q), want PutData %.40q", env.Msg, pd.Value, value)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("PutData %.40q was not delivered", value)
	}
}

// inbound counts the accepted connections the network still reads from.
func (n *Network) inbound() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.ins)
}

// TestReadFrameShortReads: readFrame returns the same envelopes whether the
// stream comes in one piece, a byte at a time or in halves — including a
// frame larger than the read buffer and an unknown-kind frame in between —
// with the connection's read buffer and with bufio's smallest, where every
// frame straddles a refill.
func TestReadFrameShortReads(t *testing.T) {
	var stream []byte
	stream = append(stream, putFrame(1, []byte("small"))...)
	stream = appendFrame(stream, wire.Envelope{From: fromA, To: toB,
		Msg: wire.Broadcast{Origin: fromA, Seq: 3, Inner: wire.CommitTag{Tag: tag.Tag{Z: 2, W: 1}}}})
	stream = append(stream, unknownKindFrame(putFrame(2, nil))...)
	stream = append(stream, putFrame(3, bigValue(256<<10))...)
	stream = append(stream, putFrame(4, nil)...)
	if want, skipped, _ := splitFrames(stream); len(want) != 4 || skipped != 1 {
		t.Fatalf("reference reader found %d frames and skipped %d, want 4 and 1", len(want), skipped)
	}
	for _, size := range []int{readBufferSize, minReadBuffer} {
		checkReadFrames(t, stream, size)
		checkReadFrames(t, stream[:len(stream)-3], size)                                // torn at the end
		checkReadFrames(t, binary.BigEndian.AppendUint32(stream, maxFrameSize+1), size) // oversized at the end
	}
}

// TestBurstArrivesInOrder: 100 frames written with one Write — many
// frames per read — all arrive, complete and in order.
func TestBurstArrivesInOrder(t *testing.T) {
	const frames = 100
	host, got := receiver(t, frames)
	var burst []byte
	for i := range frames {
		burst = append(burst, putFrame(uint64(i), fmt.Appendf(nil, "frame %d", i))...)
	}
	conn, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		expectPut(t, got, fmt.Appendf(nil, "frame %d", i))
	}
}

// TestFrameLargerThanBufferArrivesIntact: a 256 KiB PutData between two
// small frames in one burst spans many buffer fills and arrives intact,
// and so do its neighbours.
func TestFrameLargerThanBufferArrivesIntact(t *testing.T) {
	host, got := receiver(t, 3)
	big := bigValue(256 << 10)
	burst := append(append(putFrame(1, []byte("before")), putFrame(2, big)...), putFrame(3, []byte("after"))...)
	conn, err := net.Dial("tcp", host.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	expectPut(t, got, []byte("before"))
	expectPut(t, got, big)
	expectPut(t, got, []byte("after"))
}

// minReadBuffer is the smallest buffer bufio allows: under it nearly every
// frame straddles a refill.
const minReadBuffer = 16

// FuzzReadFrames frames a fuzzed sequence of bodies back to back and reads
// the stream a byte at a time and in halves: every shape must decode to
// exactly what the whole-buffer reference reader gives. spec is a list of
// [u16 length][body] chunks; tail ends the stream cleanly (0 mod 3), with a
// torn frame (1) or with an oversized length prefix (2). The read buffer is
// bufio's smallest, which keeps each run cheap enough for the fuzzer to
// minimise what it finds and makes frames straddle refills.
func FuzzReadFrames(f *testing.F) {
	body := func(env wire.Envelope) []byte { return wire.EncodeEnvelope(env) }
	chunk := func(b []byte) []byte { return append(binary.BigEndian.AppendUint16(nil, uint16(len(b))), b...) }
	seed := chunk(body(wire.Envelope{From: fromA, To: toB, Msg: wire.PutData{OpID: 1, Value: []byte("v")}}))
	seed = append(seed, chunk(body(wire.Envelope{From: fromA, To: toB, Msg: wire.CommitTag{Tag: tag.Tag{Z: 1, W: 1}}}))...)
	seed = append(seed, chunk(unknownKindFrame(putFrame(2, nil))[4:])...)
	seed = append(seed, chunk(body(wire.Envelope{From: fromA, To: toB, Msg: wire.PutData{OpID: 3, Value: bigValue(100)}}))...)
	for tail := range uint8(3) {
		f.Add(seed, tail)
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0}, uint8(4))
	f.Fuzz(func(t *testing.T, spec []byte, tail uint8) {
		var stream []byte
		for len(spec) >= 2 {
			n := min(int(binary.BigEndian.Uint16(spec)), len(spec)-2)
			stream = binary.BigEndian.AppendUint32(stream, uint32(n))
			stream = append(stream, spec[2:2+n]...)
			spec = spec[2+n:]
		}
		switch tail % 3 {
		case 1: // promises tail bytes, delivers half
			stream = binary.BigEndian.AppendUint32(stream, uint32(tail))
			stream = append(stream, make([]byte, tail/2)...)
		case 2:
			stream = binary.BigEndian.AppendUint32(stream, maxFrameSize+1)
		}
		checkReadFrames(t, stream, minReadBuffer)
	})
}
