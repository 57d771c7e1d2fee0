package wire_test

// Buffer-aliasing safety tests for the zero-copy wire path: the cloning
// decoders must yield messages that survive any later reuse of the input
// buffer (frames go back to the pool the moment the sender's write
// returns), while the alias decoders are documented to share memory with
// their input — the contract the TCP read loop relies on when it hands
// each frame's freshly allocated body to DecodeEnvelopeAlias.

import (
	"bytes"
	"testing"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

func testPutData() wire.PutData {
	return wire.PutData{
		OpID:  7,
		Tag:   tag.Tag{Z: 3, W: 1},
		Value: []byte("the quick brown fox jumps over the lazy dog"),
	}
}

// TestAliasingDecodeOwnsMemory: Decode's result must be immune to the
// input buffer being scribbled over afterwards.
func TestAliasingDecodeOwnsMemory(t *testing.T) {
	m := testPutData()
	buf := wire.Encode(m)
	got, err := wire.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	pd, ok := got.(wire.PutData)
	if !ok {
		t.Fatalf("decoded %T, want PutData", got)
	}
	if !bytes.Equal(pd.Value, m.Value) {
		t.Errorf("Decode result corrupted by input reuse: %q", pd.Value)
	}
}

// TestAliasingDecodeAliasSharesMemory documents the zero-copy contract:
// DecodeAlias's byte-slice fields alias the input, so the caller must not
// recycle it while the message is live.
func TestAliasingDecodeAliasSharesMemory(t *testing.T) {
	m := testPutData()
	buf := wire.Encode(m)
	got, err := wire.DecodeAlias(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	pd := got.(wire.PutData)
	if bytes.Equal(pd.Value, m.Value) {
		t.Error("DecodeAlias result did not alias the input; the zero-copy contract changed")
	}
}

// TestBufferOwnershipReusedEncodeBuffer is the S2 scenario end to end:
// encode an envelope into a buffer that is reused (as tcpnet's sender
// reuses its burst buffer), decode it with the cloning decoder (as any
// retaining consumer must), then overwrite the buffer, exactly what
// encoding the next burst does. The decoded message must be unaffected.
func TestBufferOwnershipReusedEncodeBuffer(t *testing.T) {
	m := testPutData()
	env := wire.Envelope{
		From: wire.ProcID{Role: wire.RoleWriter, Index: 1},
		To:   wire.ProcID{Role: wire.RoleL1, Index: 2},
		Msg:  m,
	}
	buf := wire.AppendEnvelope(make([]byte, 0, 512), env)
	decoded, err := wire.DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	pd, ok := decoded.Msg.(wire.PutData)
	if !ok {
		t.Fatalf("decoded %T, want PutData", decoded.Msg)
	}
	if decoded.From != env.From || decoded.To != env.To {
		t.Errorf("envelope routing corrupted: %v -> %v", decoded.From, decoded.To)
	}
	if !bytes.Equal(pd.Value, m.Value) {
		t.Errorf("decoded message corrupted by encode-buffer reuse: %q", pd.Value)
	}
}
