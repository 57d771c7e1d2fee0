package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"github.com/lds-storage/lds/internal/tag"
)

// golden pins the encoding of one populated message of every kind, in
// kind order: every optional trailing field set, nil and non-empty
// lists, negative int32 and int64 fields. A round trip cannot notice two
// fields swapped on both sides at once; these bytes do, and they are what
// a node or gateway of another build reads.
var golden = []struct {
	msg Message
	hex string
}{
	{QueryTag{OpID: 1<<40 + 3}, "01838080808020"},
	{QueryTagResp{OpID: 2, Tag: gt}, "0202ac0209"},
	{PutData{OpID: 3, Tag: gt, Value: []byte("put")}, "0303ac020903707574"},
	{PutDataResp{OpID: 4, Tag: gt}, "0404ac0209"},
	{QueryCommTag{OpID: 5}, "0505"},
	{QueryCommTagResp{OpID: 6, Tag: gt}, "0606ac0209"},
	{QueryData{OpID: 7, Req: gt}, "0707ac0209"},
	{QueryDataResp{OpID: 8, Class: PayloadCoded, Tag: gt, Data: []byte{1, 2, 3}, ValueLen: -9},
		"080802ac02091103010203"},
	{PutTag{OpID: 9, Tag: gt}, "0909ac0209"},
	{PutTagResp{OpID: 10}, "0a0a"},
	{Broadcast{Origin: ProcID{Role: RoleL1, Index: -2}, Seq: 11,
		Inner: PutData{OpID: 12, Tag: tag.Tag{Z: 1, W: 2}, Value: []byte("in")}, Incarnation: 1 << 40},
		"0b03030b030c010402696e808080808020"},
	{CommitTag{Tag: gt}, "0cac0209"},
	{WriteCodeElem{Tag: gt, Coded: []byte{4, 5}, ValueLen: -12}, "0dac020917020405"},
	{AckCodeElem{Tag: gt}, "0eac0209"},
	{QueryCodeElem{Reader: ProcID{Role: RoleReader, Index: -3}, OpID: 13}, "0f02050d"},
	{SendHelperElem{Reader: ProcID{Role: RoleReader, Index: 4}, OpID: 14, Tag: gt,
		Helper: []byte{6}, ValueLen: -15}, "1002080eac02091d0106"},
	{ABDQuery{OpID: 16, WantValue: true}, "111001"},
	{ABDQueryResp{OpID: 17, Tag: gt, Value: []byte("q")}, "1211ac02090171"},
	{ABDUpdate{OpID: 18, Tag: gt, Value: []byte("u")}, "1312ac02090175"},
	{ABDUpdateAck{OpID: 19}, "1413"},
	{WriteCodeElemBatch{Elems: []CodeElem{
		{Tag: gt, Coded: []byte{7}, ValueLen: -20},
		{Tag: tag.Tag{Z: 1, W: 2}, ValueLen: 21},
	}}, "1502ac020927010701042a00"},
	{AckCodeElemBatch{Tags: []tag.Tag{gt, {Z: 1, W: -1}}}, "1602ac02090101"},
	{GroupServe{
		Seq: 22, Group: -22, Gen: 1 << 33, N1: 4, N2: 5, F1: -1, F2: 1,
		Nodes:      []NodeAddr{{ID: -7, Addr: "h:1"}, {ID: 8, Addr: "h:2"}},
		ClientAddr: "c:3", Value: []byte("seed"), Tag: gt, Code: 0x9a3f_52c1_07e4_d86b,
	}, "17162b8080808020080a0102020d03683a311003683a3203633a33ac02090473656564ebb093bf90d8d49f9a01"},
	{GroupServeResp{Seq: 23, Group: -23, Err: "e", Code: 0x9a3f_52c1_07e4_d86b}, "18172d0165ebb093bf90d8d49f9a01"},
	{GroupRetire{Seq: 24, Group: -24}, "19182f"},
	{GroupRetireResp{Seq: 25, Group: -25}, "1a1931"},
	{NodePing{Seq: 26, ReplyAddr: "r:4"}, "1b1a03723a34"},
	{NodePong{Seq: 27, Groups: -27, Servers: 28, TemporaryBytes: -29,
		PermanentBytes: 1 << 40, OffloadQueueDepth: -1}, "1c1b35383980808080804001"},
	{GroupStats{Seq: 28, Group: AllGroups, ReplyAddr: "r:4", Code: 0x9a3f_52c1_07e4_d86b,
		Nodes: []NodeAddr{{ID: 1, Addr: "h:1"}}}, "1d1c0103723a34ebb093bf90d8d49f9a01010203683a31"},
	{GroupStatsResp{Seq: 29, Code: 0x9a3f_52c1_07e4_d86b, Groups: []GroupGauges{
		{Group: -1, TemporaryBytes: -2, PermanentBytes: 3, OffloadQueueDepth: 4, Gen: 5},
		{Group: 6, Gen: 1 << 40},
	}}, "1e1d02010306080c00000005808080808020ebb093bf90d8d49f9a01"},
	{ElemInventory{Seq: 30, Group: -30, ReplyAddr: "r:4"}, "1f1e3b03723a34"},
	{ElemInventoryResp{Seq: 31, Groups: []GroupInventory{
		{Group: -31},
		{Group: 32, Elems: []ElemStat{
			{Index: -1, Tag: gt, Digest: 0xdeadbeef, StoredLen: -2, ValueLen: 3, Healthy: true},
			{Index: 4, Tag: tag.Tag{Z: 1, W: 2}, Digest: 1, StoredLen: 5, ValueLen: -6},
		}},
	}}, "201f023d00400201ac0209effdb6f50d030601080104010a0b00"},
	{ElemFetch{Seq: 32, Group: -32, Index: 2, FailedIndex: FullElement, ReplyAddr: "r:4"}, "21203f040103723a34"},
	{ElemFetchResp{Seq: 33, Group: -33, Index: 3, Tag: gt, ValueLen: -128,
		Data: []byte{1, 2}, Err: "e"}, "22214106ac0209ff010165020102"},
	{ElemRepair{Seq: 34, Group: -34, Index: 4, Tag: gt, ValueLen: -64,
		Coded: []byte{9}, ReplyAddr: "r:4"}, "23224308ac02097f03723a340109"},
	{ElemRepairResp{Seq: 35, Group: -35, Index: 5, Installed: true, Err: "e"}, "2423450a010165"},
}

// gt is golden's tag: a multi-byte Z and a negative writer id.
var gt = tag.Tag{Z: 300, W: -5}

// TestGoldenEncoding: every kind encodes to its pinned bytes, and the
// pinned bytes decode to a message that encodes to them again.
func TestGoldenEncoding(t *testing.T) {
	kinds := make(map[Kind]bool)
	for _, g := range golden {
		kinds[g.msg.Kind()] = true
		want := unhex(t, g.hex)
		if got := Encode(g.msg); !bytes.Equal(got, want) {
			t.Errorf("%T encodes as %s, want %s", g.msg, hex.EncodeToString(got), g.hex)
			continue
		}
		dec, err := Decode(want)
		if err != nil {
			t.Errorf("%T: Decode of the pinned bytes: %v", g.msg, err)
			continue
		}
		if got := Encode(dec); !bytes.Equal(got, want) {
			t.Errorf("%T: pinned bytes decode as %#v, which encodes as %s", g.msg, dec, hex.EncodeToString(got))
		}
	}
	if len(kinds) != len(golden) || len(kinds) != int(KindElemRepairResp) {
		t.Errorf("golden covers %d kinds in %d entries, want all %d once", len(kinds), len(golden), KindElemRepairResp)
	}
}
