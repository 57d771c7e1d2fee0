package wire

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/lds-storage/lds/internal/tag"
)

// allMessages is one representative of every message kind; the round-trip
// test must cover the full taxonomy so a new kind cannot ship without an
// encoding test.
func allMessages() []Message {
	t1 := tag.Tag{Z: 7, W: 3}
	return []Message{
		QueryTag{OpID: 1},
		QueryTagResp{OpID: 1, Tag: t1},
		PutData{OpID: 2, Tag: t1, Value: []byte("hello world")},
		PutDataResp{OpID: 2, Tag: t1},
		CommitTag{Tag: t1},
		Broadcast{Origin: ProcID{Role: RoleL1, Index: 4}, Seq: 99, Inner: CommitTag{Tag: t1}},
		QueryCommTag{OpID: 3},
		QueryCommTagResp{OpID: 3, Tag: t1},
		QueryData{OpID: 4, Req: t1},
		QueryDataResp{OpID: 4, Class: PayloadValue, Tag: t1, Data: []byte("v"), ValueLen: 1},
		QueryDataResp{OpID: 4, Class: PayloadCoded, Tag: t1, Data: []byte{1, 2, 3}, ValueLen: 11},
		QueryDataResp{OpID: 4, Class: PayloadNone, Tag: tag.Zero, Data: []byte{}, ValueLen: 0},
		PutTag{OpID: 5, Tag: t1},
		PutTagResp{OpID: 5},
		WriteCodeElem{Tag: t1, Coded: []byte{9, 8, 7, 6}, ValueLen: 20},
		AckCodeElem{Tag: t1},
		WriteCodeElemBatch{Elems: []CodeElem{
			{Tag: t1, Coded: []byte{1, 2}, ValueLen: 8},
			{Tag: tag.Tag{Z: 8, W: 3}, Coded: []byte{3, 4, 5}, ValueLen: 12},
		}},
		WriteCodeElemBatch{Elems: []CodeElem{}},
		AckCodeElemBatch{Tags: []tag.Tag{t1, {Z: 8, W: 3}}},
		AckCodeElemBatch{Tags: []tag.Tag{}},
		QueryCodeElem{Reader: ProcID{Role: RoleReader, Index: 2}, OpID: 6},
		SendHelperElem{Reader: ProcID{Role: RoleReader, Index: 2}, OpID: 6, Tag: t1, Helper: []byte{5}, ValueLen: 20},
		ABDQuery{OpID: 7, WantValue: true},
		ABDQuery{OpID: 7, WantValue: false},
		ABDQueryResp{OpID: 7, Tag: t1, Value: []byte("abd")},
		ABDUpdate{OpID: 8, Tag: t1, Value: []byte("abd2")},
		ABDUpdateAck{OpID: 8},
		GroupServe{
			Seq: 9, Group: 12, Gen: 42, N1: 4, N2: 5, F1: 1, F2: 1,
			Nodes: []NodeAddr{
				{ID: 1, Addr: "127.0.0.1:7101"},
				{ID: 2, Addr: "127.0.0.1:7102"},
			},
			ClientAddr: "127.0.0.1:9000",
			Value:      []byte("seed value"),
			Tag:        t1,
			Code:       0x9a3f_52c1_07e4_d86b,
		},
		GroupServe{Seq: 10, Group: 0, N1: 3, N2: 3, F1: 1, F2: 1,
			Nodes: []NodeAddr{{ID: 1, Addr: "h:1"}}, ClientAddr: "h:2"},
		GroupServeResp{Seq: 9, Group: 12},
		GroupServeResp{Seq: 9, Group: 12, Err: "node 3 not in group"},
		GroupServeResp{Seq: 9, Group: 12, Code: 0x9a3f_52c1_07e4_d86b},
		GroupRetire{Seq: 11, Group: 12},
		GroupRetireResp{Seq: 11, Group: 12},
		NodePing{Seq: 12, ReplyAddr: "127.0.0.1:9000"},
		NodePong{Seq: 12, Groups: 3},
		NodePong{Seq: 13, Groups: 2, Servers: 6,
			TemporaryBytes: 4096, PermanentBytes: 123456, OffloadQueueDepth: 7},
		GroupStats{Seq: 14, Group: 12, ReplyAddr: "127.0.0.1:9000"},
		GroupStats{Seq: 15, Group: AllGroups, ReplyAddr: "127.0.0.1:9000"},
		GroupStats{Seq: 16, Group: AllGroups, ReplyAddr: "127.0.0.1:9000", Code: 0x9a3f_52c1_07e4_d86b,
			Nodes: []NodeAddr{{ID: 1, Addr: "127.0.0.1:7101"}, {ID: 2, Addr: "127.0.0.1:7102"}}},
		GroupStatsResp{Seq: 14, Groups: []GroupGauges{
			{Group: 12, TemporaryBytes: 100, PermanentBytes: 2048, OffloadQueueDepth: 3},
			{Group: 13, PermanentBytes: 96},
		}},
		GroupStatsResp{Seq: 15, Groups: []GroupGauges{}},
		GroupStatsResp{Seq: 16, Code: 0x9a3f_52c1_07e4_d86b, Groups: []GroupGauges{
			{Group: 12, PermanentBytes: 2048, Gen: 42},
			{Group: 13, Gen: 1 << 40},
		}},
		ElemInventory{Seq: 16, Group: 12, ReplyAddr: "127.0.0.1:9000"},
		ElemInventory{Seq: 17, Group: AllGroups, ReplyAddr: "127.0.0.1:9000"},
		ElemInventoryResp{Seq: 16, Groups: []GroupInventory{
			{Group: 12, Elems: []ElemStat{
				{Index: 0, Tag: t1, Digest: 0xdeadbeef, StoredLen: 64, ValueLen: 128, Healthy: true},
				{Index: 2, Tag: tag.Tag{Z: 8, W: 3}, Digest: 1, StoredLen: 64, ValueLen: 128, Healthy: false},
			}},
			{Group: 13, Elems: []ElemStat{}},
		}},
		ElemInventoryResp{Seq: 17, Groups: []GroupInventory{}},
		ElemFetch{Seq: 18, Group: 12, Index: 2, FailedIndex: 5, ReplyAddr: "127.0.0.1:9000"},
		ElemFetch{Seq: 19, Group: 12, Index: 0, FailedIndex: FullElement, ReplyAddr: "127.0.0.1:9000"},
		ElemFetchResp{Seq: 18, Group: 12, Index: 2, Tag: t1, ValueLen: 128, Data: []byte{1, 2, 3, 4}},
		ElemFetchResp{Seq: 18, Group: 12, Index: 2, Err: "group 12 not hosted"},
		ElemRepair{Seq: 20, Group: 12, Index: 2, Tag: t1, ValueLen: 128,
			Coded: []byte{9, 8, 7}, ReplyAddr: "127.0.0.1:9000"},
		ElemRepairResp{Seq: 20, Group: 12, Index: 2, Installed: true},
		ElemRepairResp{Seq: 21, Group: 12, Index: 2, Installed: false, Err: "element not hosted"},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, msg := range allMessages() {
		enc := Encode(msg)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%T: Decode: %v", msg, err)
		}
		if !reflect.DeepEqual(normalize(dec), normalize(msg)) {
			t.Errorf("%T: round trip mismatch:\n got %#v\nwant %#v", msg, dec, msg)
		}
	}
}

// normalize maps nil and empty byte slices to equality for DeepEqual.
func normalize(m Message) Message {
	switch v := m.(type) {
	case PutData:
		v.Value = orEmpty(v.Value)
		return v
	case QueryDataResp:
		v.Data = orEmpty(v.Data)
		return v
	case WriteCodeElem:
		v.Coded = orEmpty(v.Coded)
		return v
	case WriteCodeElemBatch:
		elems := make([]CodeElem, len(v.Elems))
		for i, el := range v.Elems {
			el.Coded = orEmpty(el.Coded)
			elems[i] = el
		}
		v.Elems = elems
		return v
	case SendHelperElem:
		v.Helper = orEmpty(v.Helper)
		return v
	case ABDQueryResp:
		v.Value = orEmpty(v.Value)
		return v
	case ABDUpdate:
		v.Value = orEmpty(v.Value)
		return v
	case GroupServe:
		v.Value = orEmpty(v.Value)
		return v
	case ElemFetchResp:
		v.Data = orEmpty(v.Data)
		return v
	case ElemRepair:
		v.Coded = orEmpty(v.Coded)
		return v
	default:
		return m
	}
}

func orEmpty(b []byte) []byte {
	if b == nil {
		return []byte{}
	}
	return b
}

func TestAllKindsRegistered(t *testing.T) {
	seen := make(map[Kind]bool)
	for _, m := range allMessages() {
		seen[m.Kind()] = true
	}
	for k := range decoders {
		if !seen[k] {
			t.Errorf("kind %d has a decoder but no round-trip coverage", k)
		}
	}
	for k := range seen {
		if _, ok := decoders[k]; !ok {
			t.Errorf("kind %d has no registered decoder", k)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := Envelope{
		From: ProcID{Role: RoleL1, Index: 3},
		To:   ProcID{Role: RoleL2, Index: 17},
		Msg:  WriteCodeElem{Tag: tag.Tag{Z: 2, W: 1}, Coded: []byte{1, 2}, ValueLen: 4},
	}
	enc := EncodeEnvelope(env)
	got, err := DecodeEnvelope(enc)
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	if got.From != env.From || got.To != env.To {
		t.Errorf("addressing mismatch: got %v->%v", got.From, got.To)
	}
	if !reflect.DeepEqual(got.Msg, env.Msg) {
		t.Errorf("message mismatch: %#v", got.Msg)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) should fail")
	}
	if _, err := Decode([]byte{255}); err == nil {
		t.Error("Decode of unknown kind should fail")
	}
	// Every strict prefix of an encoding fails to decode, except one that
	// ends where an older build's form of the message ends: it decodes,
	// with the missing trailing fields zero, to a message whose encoding
	// extends it.
	olderForms := map[Kind]bool{KindGroupServe: true, KindGroupServeResp: true,
		KindGroupStats: true, KindGroupStatsResp: true, KindBroadcast: true}
	for _, msg := range allMessages() {
		enc := Encode(msg)
		for cut := range len(enc) {
			m, err := Decode(enc[:cut])
			if err == nil && (!olderForms[msg.Kind()] || !bytes.HasPrefix(Encode(m), enc[:cut])) {
				t.Errorf("%T: prefix % x of % x decoded as %#v", msg, enc[:cut], enc, m)
			}
		}
	}
}

func TestPayloadVsMetaSplit(t *testing.T) {
	val := make([]byte, 1000)
	m := PutData{OpID: 1, Tag: tag.Tag{Z: 9, W: 2}, Value: val}
	meta, payload := Sizes(m)
	if payload != 1000 {
		t.Errorf("payload = %d, want 1000", payload)
	}
	if meta <= 0 || meta > 32 {
		t.Errorf("meta = %d, want small positive overhead", meta)
	}
	// Control messages are pure metadata.
	for _, m := range []Message{QueryTag{OpID: 1}, CommitTag{Tag: tag.Tag{Z: 1, W: 1}}, PutTag{OpID: 2, Tag: tag.Tag{Z: 1, W: 1}}} {
		if _, payload := Sizes(m); payload != 0 {
			t.Errorf("%T: payload = %d, want 0", m, payload)
		}
	}
}

func TestBroadcastCarriesInnerPayloadAccounting(t *testing.T) {
	inner := PutData{OpID: 1, Tag: tag.Tag{Z: 1, W: 1}, Value: []byte("xyz")}
	b := Broadcast{Origin: ProcID{Role: RoleL1, Index: 0}, Seq: 1, Inner: inner}
	if _, payload := Sizes(b); payload != 3 {
		t.Errorf("Broadcast payload = %d, want inner's 3", payload)
	}
}

// TestSizes pins (meta, payload) for every message of allMessages, as
// each message's hand-written payload count and the length of its
// encoding minus that count gave them, and checks that they add up to the
// encoding's length.
func TestSizes(t *testing.T) {
	want := [][2]int{
		{2, 0},     // QueryTag
		{4, 0},     // QueryTagResp
		{5, 11},    // PutData
		{4, 0},     // PutDataResp
		{3, 0},     // CommitTag
		{7 + 1, 0}, // Broadcast: + the Incarnation varint
		{2, 0},     // QueryCommTag
		{4, 0},     // QueryCommTagResp
		{4, 0},     // QueryData
		{7, 1},     // QueryDataResp
		{7, 3},     // QueryDataResp
		{7, 0},     // QueryDataResp
		{4, 0},     // PutTag
		{2, 0},     // PutTagResp
		{5, 4},     // WriteCodeElem
		{3, 0},     // AckCodeElem
		{10, 5},    // WriteCodeElemBatch
		{2, 0},     // WriteCodeElemBatch
		{6, 0},     // AckCodeElemBatch
		{2, 0},     // AckCodeElemBatch
		{4, 0},     // QueryCodeElem
		{8, 1},     // SendHelperElem
		{3, 0},     // ABDQuery
		{3, 0},     // ABDQuery
		{5, 3},     // ABDQueryResp
		{5, 4},     // ABDUpdate
		{2, 0},     // ABDUpdateAck
		{69, 10},   // GroupServe
		{22, 0},    // GroupServe
		{5, 0},     // GroupServeResp
		{24, 0},    // GroupServeResp
		{14, 0},    // GroupServeResp
		{3, 0},     // GroupRetire
		{3, 0},     // GroupRetireResp
		{17, 0},    // NodePing
		{7, 0},     // NodePong
		{10, 0},    // NodePong
		{20, 0},    // GroupStats
		{20, 0},    // GroupStats
		{61, 0},    // GroupStats
		{17, 0},    // GroupStatsResp
		{4, 0},     // GroupStatsResp
		{29, 0},    // GroupStatsResp
		{18, 0},    // ElemInventory
		{18, 0},    // ElemInventory
		{29, 0},    // ElemInventoryResp
		{3, 0},     // ElemInventoryResp
		{20, 0},    // ElemFetch
		{20, 0},    // ElemFetch
		{10, 4},    // ElemFetchResp
		{28, 0},    // ElemFetchResp
		{24, 3},    // ElemRepair
		{6, 0},     // ElemRepairResp
		{24, 0},    // ElemRepairResp
	}
	msgs := allMessages()
	if len(want) != len(msgs) {
		t.Fatalf("%d sizes pinned for %d messages", len(want), len(msgs))
	}
	for i, m := range msgs {
		meta, payload := Sizes(m)
		if [2]int{meta, payload} != want[i] {
			t.Errorf("%d: Sizes(%T) = (%d, %d), want %v", i, m, meta, payload, want[i])
		}
		if n := len(Encode(m)); meta+payload != n {
			t.Errorf("%d: Sizes(%T) adds up to %d, its encoding has %d bytes", i, m, meta+payload, n)
		}
		if n := testing.AllocsPerRun(100, func() { meta, payload = Sizes(m) }); n != 0 {
			t.Errorf("%d: Sizes(%T) allocates %.0f times, want 0", i, m, n)
		}
	}
}

func TestProcIDString(t *testing.T) {
	tests := []struct {
		id   ProcID
		want string
	}{
		{ProcID{Role: RoleWriter, Index: 1}, "w/1"},
		{ProcID{Role: RoleReader, Index: 2}, "r/2"},
		{ProcID{Role: RoleL1, Index: 0}, "L1/0"},
		{ProcID{Role: RoleL2, Index: 9}, "L2/9"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestTagEncodingNegativeWriter(t *testing.T) {
	// Writer ids are int32; the varint encoding must survive the full range.
	for _, w := range []int32{-1, 0, 1, 1 << 30, -(1 << 30)} {
		m := PutTag{OpID: 1, Tag: tag.Tag{Z: 5, W: w}}
		dec, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if dec.(PutTag).Tag.W != w {
			t.Errorf("w=%d: round trip = %d", w, dec.(PutTag).Tag.W)
		}
	}
}

// TestGroupServeFromOlderBuild: a GroupServe or GroupServeResp from a build
// that predates the code fingerprint ends before the Code field. It still
// decodes, with Code 0, so the receiver can refuse it with a reason
// instead of dropping it as malformed.
func TestGroupServeFromOlderBuild(t *testing.T) {
	for _, msg := range []Message{
		GroupServe{Seq: 1, Group: 2, N1: 3, N2: 4, F1: 1, F2: 1,
			Nodes: []NodeAddr{{ID: 1, Addr: "h:1"}}, ClientAddr: "h:2", Value: []byte("v")},
		GroupServeResp{Seq: 1, Group: 2, Err: "refused"},
	} {
		enc := Encode(msg)
		if enc[len(enc)-1] != 0 {
			t.Fatalf("%T: encoding does not end in a zero Code: % x", msg, enc)
		}
		got, err := Decode(enc[:len(enc)-1])
		if err != nil {
			t.Fatalf("%T without Code: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%T without Code decoded as %#v, want %#v", msg, got, msg)
		}
	}
}

// TestBroadcastFromOlderBuild: a Broadcast from a build that predates
// incarnations (the bytes such a build wrote) decodes with Incarnation 0,
// the oldest one, instead of being dropped as malformed.
func TestBroadcastFromOlderBuild(t *testing.T) {
	got, err := Decode(unhex(t, "0b03030b030c010402696e"))
	want := Broadcast{Origin: ProcID{Role: RoleL1, Index: -2}, Seq: 11,
		Inner: PutData{OpID: 12, Tag: tag.Tag{Z: 1, W: 2}, Value: []byte("in")}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("older Broadcast decoded as (%#v, %v), want %#v", got, err, want)
	}
}

// olderStatsFrames encode a GroupStats and a GroupStatsResp as a build
// that predates the reconcile fields writes them: no Code and no Nodes in
// the request, no generations and no Code after the gauges. decodedAs is
// what each decodes to now.
var olderStatsFrames = []struct {
	hex       string
	decodedAs Message
}{
	{"1d0f010e3132372e302e302e313a39303030", // GroupStats, kind 29
		GroupStats{Seq: 15, Group: AllGroups, ReplyAddr: "127.0.0.1:9000"}},
	{"1e0e0218c8018020061a00c00100", // GroupStatsResp, kind 30
		GroupStatsResp{Seq: 14, Groups: []GroupGauges{
			{Group: 12, TemporaryBytes: 100, PermanentBytes: 2048, OffloadQueueDepth: 3},
			{Group: 13, PermanentBytes: 96},
		}}},
}

// TestGroupStatsFromOlderBuild: a reconcile answered by a node that
// predates generations decodes with every Gen and the Code 0 — a
// generation no group is minted at, so the gateway re-serves its groups —
// and a request from an older gateway decodes as a gauge sample, which
// moves nothing on the node.
func TestGroupStatsFromOlderBuild(t *testing.T) {
	for _, f := range olderStatsFrames {
		got, err := Decode(unhex(t, f.hex))
		if err != nil {
			t.Fatalf("%T of an older build: %v", f.decodedAs, err)
		}
		if !reflect.DeepEqual(got, f.decodedAs) {
			t.Fatalf("%T of an older build decoded as %#v, want %#v", f.decodedAs, got, f.decodedAs)
		}
	}
}
