package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// retiredFrames are the encodings of the ten messages of the former
// multi-gateway fleet's peer plane (lease announcements and forwarded
// operations, kinds 37-42), as that version wrote them. A gateway or node
// host that meets one, say from a member not yet upgraded, must refuse it
// as an unknown kind; the fuzzers start from them too.
var retiredFrames = []string{
	"25160602058080a0f6f4acdbe01b0e3132372e302e302e313a39313030", // LeaseClaim, kind 37
	"261606", // LeaseClaimResp, kind 38
	"27170602058080c0ece9d9b6c1370e3132372e302e302e313a39313030", // LeaseRenew, kind 39
	"281706", // LeaseRenewResp, kind 40
	"291801086772656574696e670e3132372e302e302e313a393130300568656c6c6f", // PeerForward, kind 41
	"291902086772656574696e670e3132372e302e302e313a3931303000",           // PeerForward, kind 41
	"2a180000070600",           // PeerForwardResp, kind 42
	"2a19000007060568656c6c6f", // PeerForwardResp, kind 42
	"2a1a0100000000",           // PeerForwardResp, kind 42
	"2a1b00136f7065726174696f6e2074696d6564206f7574000000", // PeerForwardResp, kind 42
}

// retiredEnvelopes are the same messages inside a writer-to-L1 envelope.
var retiredEnvelopes = []string{
	"0102030425160602058080a0f6f4acdbe01b0e3132372e302e302e313a39313030",
	"01020304261606",
	"0102030427170602058080c0ece9d9b6c1370e3132372e302e302e313a39313030",
	"01020304281706",
	"01020304291801086772656574696e670e3132372e302e302e313a393130300568656c6c6f",
	"01020304291902086772656574696e670e3132372e302e302e313a3931303000",
	"010203042a180000070600",
	"010203042a19000007060568656c6c6f",
	"010203042a1a0100000000",
	"010203042a1b00136f7065726174696f6e2074696d6564206f7574000000",
}

func unhex(t testing.TB, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRetiredKindsRefused: frames of the removed peer-plane kinds decode
// to an error, bare and enveloped. A kind appended later takes one of
// these values; then this test must be changed on purpose.
func TestRetiredKindsRefused(t *testing.T) {
	for i, h := range retiredFrames {
		if m, err := Decode(unhex(t, h)); err == nil {
			t.Errorf("retired frame %d decoded as %T", i, m)
		}
		if env, err := DecodeEnvelope(unhex(t, retiredEnvelopes[i])); err == nil {
			t.Errorf("retired envelope %d decoded as %T", i, env.Msg)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the message decoder. The corpus
// seeds one encoding of every message kind (via allMessages), so the
// fuzzer starts from every decoder path, the retired frames, and the
// older-build forms of the messages that gained trailing fields. Properties checked on inputs
// that decode: re-encoding is stable (encode∘decode is idempotent on the
// wire form) and never panics, and Sizes splits exactly that encoding.
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Encode(m))
	}
	// A few corrupt shapes so the minimizer has somewhere to start.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0x01, 0x00})
	for _, h := range retiredFrames {
		f.Add(unhex(f, h))
	}
	for _, o := range olderStatsFrames {
		f.Add(unhex(f, o.hex))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		enc := Encode(m)
		if meta, payload := Sizes(m); meta+payload != len(enc) {
			t.Fatalf("Sizes = (%d, %d), the encoding has %d bytes (kind %d)", meta, payload, len(enc), m.Kind())
		}
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v (kind %d)", err, m.Kind())
		}
		if enc2 := Encode(m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable: % x != % x", enc, enc2)
		}
	})
}

// FuzzDecodeEnvelope does the same through the envelope layer the TCP
// transport uses, exercising the ProcID header decoders in front of
// every message kind.
func FuzzDecodeEnvelope(f *testing.F) {
	from := ProcID{Role: RoleWriter, Index: 1}
	to := ProcID{Role: RoleL1, Index: 2}
	for _, m := range allMessages() {
		f.Add(EncodeEnvelope(Envelope{From: from, To: to, Msg: m}))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	for _, h := range retiredEnvelopes {
		f.Add(unhex(f, h))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := DecodeEnvelope(b)
		if err != nil {
			return
		}
		enc := EncodeEnvelope(env)
		env2, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical envelope failed: %v", err)
		}
		if enc2 := EncodeEnvelope(env2); !bytes.Equal(enc, enc2) {
			t.Fatalf("envelope encoding not stable: % x != % x", enc, enc2)
		}
	})
}
