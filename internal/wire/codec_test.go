package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"github.com/lds-storage/lds/internal/tag"
)

// decoders is the set of kinds the decoder knows: the codec's decode
// returns nil for every other kind byte.
var decoders = func() map[Kind]bool {
	known := make(map[Kind]bool)
	for k := range 256 {
		c := codec{dec: true}
		if c.decode(Kind(k)) != nil {
			known[Kind(k)] = true
		}
	}
	return known
}()

// TestInt32OutOfRange: a varint too large for the int32 it encodes fails
// the frame instead of wrapping. No encoder writes one.
func TestInt32OutOfRange(t *testing.T) {
	env := []byte{byte(RoleWriter), 2, byte(RoleL1)}
	env = binary.AppendVarint(env, 1<<32+3) // would wrap to L1/3
	env = append(env, byte(KindQueryTag), 1)
	if got, err := DecodeEnvelopeAlias(env); !errors.Is(err, errInt32Range) {
		t.Errorf("envelope to index 2^32+3 decoded as %v -> %v, err %v; want errInt32Range", got.From, got.To, err)
	}
	for _, w := range []int64{-1 << 31, 1<<31 - 1} {
		b := binary.AppendVarint([]byte{byte(KindCommitTag), 5}, w)
		if m, err := Decode(b); err != nil || m.(CommitTag).Tag.W != int32(w) {
			t.Errorf("writer id %d decoded as %v, %v", w, m, err)
		}
		if w < 0 {
			w--
		} else {
			w++
		}
		b = binary.AppendVarint([]byte{byte(KindCommitTag), 5}, w)
		if m, err := Decode(b); !errors.Is(err, errInt32Range) {
			t.Errorf("writer id %d decoded as %v, err %v; want errInt32Range", w, m, err)
		}
	}
}

// TestCountGuards: every list of every kind that has one refuses a count
// larger than the bytes left, before it allocates the list. Each frame is
// forged from two encodings that differ only in that list (empty and one
// element): they share every byte before its count.
func TestCountGuards(t *testing.T) {
	n := []NodeAddr{{ID: 1, Addr: "h:1"}}
	inv := []ElemStat{{Index: 1}}
	for _, tc := range []struct {
		name        string
		empty, full Message
	}{
		{"GroupServe.Nodes",
			GroupServe{Seq: 1, ClientAddr: "c:1", Value: []byte("v"), Code: 9},
			GroupServe{Seq: 1, ClientAddr: "c:1", Value: []byte("v"), Code: 9, Nodes: n}},
		{"GroupStats.Nodes",
			GroupStats{Seq: 1, ReplyAddr: "r:1", Code: 9},
			GroupStats{Seq: 1, ReplyAddr: "r:1", Code: 9, Nodes: n}},
		{"WriteCodeElemBatch.Elems",
			WriteCodeElemBatch{},
			WriteCodeElemBatch{Elems: []CodeElem{{Coded: []byte("c")}}}},
		{"AckCodeElemBatch.Tags",
			AckCodeElemBatch{},
			AckCodeElemBatch{Tags: []tag.Tag{{Z: 1}}}},
		{"GroupStatsResp.Groups",
			GroupStatsResp{Seq: 1, Code: 9},
			GroupStatsResp{Seq: 1, Code: 9, Groups: []GroupGauges{{Group: 1}}}},
		{"ElemInventoryResp.Groups",
			ElemInventoryResp{Seq: 1},
			ElemInventoryResp{Seq: 1, Groups: []GroupInventory{{Group: 1}}}},
		{"ElemInventoryResp.Groups.Elems",
			ElemInventoryResp{Seq: 1, Groups: []GroupInventory{{Group: 1}}},
			ElemInventoryResp{Seq: 1, Groups: []GroupInventory{{Group: 1, Elems: inv}}}},
	} {
		empty, full := Encode(tc.empty), Encode(tc.full)
		at := 0
		for empty[at] == full[at] {
			at++
		}
		if empty[at] != 0 || full[at] != 1 {
			t.Fatalf("%s: encodings differ at byte %d (%#x, %#x), not at a count", tc.name, at, empty[at], full[at])
		}
		rest := empty[at+1:]
		forged := append(binary.AppendUvarint(bytes.Clone(empty[:at]), uint64(len(rest)+1)), rest...)
		if m, err := DecodeAlias(forged); err == nil {
			t.Errorf("%s: count of %d with %d bytes left decoded as %#v", tc.name, len(rest)+1, len(rest), m)
		}
		// The forged frame allocates no more than a frame that ends just
		// before the count: nothing for the list.
		cut := empty[:at]
		want := testing.AllocsPerRun(100, func() { DecodeAlias(cut) })
		if got := testing.AllocsPerRun(100, func() { DecodeAlias(forged) }); got != want {
			t.Errorf("%s: a forged count allocates %.0f times, a frame cut before it %.0f", tc.name, got, want)
		}
	}
}

// TestCodecAllocations: encoding into a buffer with room allocates
// nothing, and DecodeAlias allocates only the boxed message and, for each
// list and string it holds, that list or string; byte slices alias the
// input, and a Broadcast's inner message is decoded by the same walk.
func TestCodecAllocations(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, m := range allMessages() {
		if n := testing.AllocsPerRun(100, func() { buf = AppendEncode(buf[:0], m) }); n != 0 {
			t.Errorf("%T: encode allocates %.0f times, want 0", m, n)
		}
		enc := Encode(m)
		want := float64(1 + heldAllocs(reflect.ValueOf(m)))
		if n := testing.AllocsPerRun(100, func() { DecodeAlias(enc) }); n > want {
			t.Errorf("%T: DecodeAlias allocates %.0f times, want at most %.0f", m, n, want)
		}
	}
	m := Broadcast{Inner: CommitTag{Tag: tag.Tag{Z: 1 << 20, W: 1}}}
	enc := Encode(m)
	if n := testing.AllocsPerRun(100, func() { DecodeAlias(enc) }); n != 2 {
		t.Errorf("DecodeAlias of %#v allocates %.0f times, want 2: the message and its inner one", m, n)
	}
}

// heldAllocs counts what decoding v allocates beyond its own box: each
// non-empty string, each non-empty list other than a byte slice (which
// aliases the input) and each message boxed in an interface field.
func heldAllocs(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Interface:
		n = 1 + heldAllocs(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			n += heldAllocs(v.Field(i))
		}
	case reflect.String:
		if v.Len() > 0 {
			n = 1
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint8 && v.Len() > 0 {
			n = 1
			for i := range v.Len() {
				n += heldAllocs(v.Index(i))
			}
		}
	}
	return n
}

func BenchmarkCodec(b *testing.B) {
	msgs := allMessages()
	encs := make([][]byte, len(msgs))
	for i, m := range msgs {
		encs[i] = Encode(m)
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 1024)
		b.ReportAllocs()
		for b.Loop() {
			for _, m := range msgs {
				buf = AppendEncode(buf[:0], m)
			}
		}
	})
	b.Run("sizes", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, m := range msgs {
				Sizes(m)
			}
		}
	})
	b.Run("decode_alias", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, enc := range encs {
				if _, err := DecodeAlias(enc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
