package erasure_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/erasure/msr"
	"github.com/lds-storage/lds/internal/erasure/rs"
)

// goldenEncodings holds, per code, SHA-256 digests of Encode's output -- the
// n shards in node order, each preceded by its length as four big-endian
// bytes -- for the first bytes of rand.NewSource(20260926) at lengths
// {0, 1, B-1, B, 4 KiB, 16 KiB+3}, B the code's stripe size. They were
// generated at commit 7488bb2, the last one whose kernels were the log/exp
// loops, so passing means the shard bytes themselves, not only the round
// trip, are what that build stored and its elements still decode.
var goldenEncodings = []struct {
	name    string
	build   func() (erasure.Code, error)
	digests []string
}{
	{"mbr(14,4,4)", func() (erasure.Code, error) { return mbr.New(erasure.Params{N: 14, K: 4, D: 4}) }, []string{
		"33af8d6243a4a9fcf6d865d9f09404334e8c45b62135649a92e2b0d86af3568e",
		"087bb6005ff5b271177780a780d293ed803586c0b58d65b69eab66936ef4b841",
		"0dcdb72adee3a598227bd13b2b6cd90db4ce0aa43ecdc3400a8dd8eff047abd9",
		"2598d49a81834b85755fa0b63f0c1afe36b5c6760f97b00c1d30c346eb45933f",
		"8ea096a75ac4002a5e7e8184497494b4ba4fde0c75c0d81a9e619ebc3dc6d31f",
		"db42b19c0b31ed9b481470747a13ff29084d450fd4c838e9cf031bd3b03269b3",
	}},
	{"mbr(15,5,8)", func() (erasure.Code, error) { return mbr.New(erasure.Params{N: 15, K: 5, D: 8}) }, []string{
		"ed76067d8ff2cc99655de317cd396fbeb2dd7ec50dbefc4433dea2bc49010e83",
		"466462df7c7999fdafdc2ed7a359b37a6f9f2c2fda2ef2662a359f5e187d431d",
		"ccb1edaff0749e145082cbff5a040e9dca31afa4a4e45f6c40f805a9d46ac377",
		"cdce367f2ed370c5ba4755a4fce27881c805f0d9efcc52cfb74aa4b999790370",
		"1cd05c37ad76645b34a0c072370c5adde99510b1d8e60abf10226d491e47ad96",
		"4f9b67b51fd254127f7d4659ef0c62837dd64a4083f96b0fff311d350775b0d3",
	}},
	{"msr(15,5)", func() (erasure.Code, error) { return msr.New(15, 5) }, []string{
		"9c0afcfcdcd5e466af10f8245e33626b8c873f1c89d6f6e9b083662e1935f99a",
		"24462cb189b010796e07a04a52e5fc19429f57931735409080a46f80ca7a84f6",
		"24fc74e8ec90dacbbc4a347716b20a8a2189d810714de9a9a7bfc12a53a7d170",
		"cae2d1c6cf23b6e20c08ffea9075d2b19ff435fd5b807ecada4a45cee316eb72",
		"4bb4454cfd1a1ea61a78a00c25b583f402b434c76f44c82cb5dac0ab73699918",
		"d1cba7fe608db2c75e2c2dcbc0512ed5dadf39a58e2a61a883fa06c3113f7f85",
	}},
	{"rs(14,10)", func() (erasure.Code, error) { return rs.New(14, 10) }, []string{
		"a272dcb0a3909098003b77d54a52e0adfffdbd3f62b185d5cf41a67fe0812a1e",
		"dded1170d28a43022368c10ea3ab7cb436e08d84c643f6a2423ab12f4beefe30",
		"f1913278d1a93aeb071ee4732bfcce0fe03f8314e8bb2ac09aa25094d65fce32",
		"386df4444c45a20587f6d6e138de3f57c249141d2d809f5f2852669699380fbb",
		"0c9f5b1d5fadc9b5d72a5ad21ad2747d435d555461bdd41944ea9de4f87d2c57",
		"0a377e146800c4837201634c7aa710f8dd20ab44a9323fd19f47b24f846abdc4",
	}},
}

func TestGoldenEncodings(t *testing.T) {
	for _, g := range goldenEncodings {
		c, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		b := c.StripeSize()
		var got []string
		for _, size := range []int{0, 1, b - 1, b, 4 << 10, 16<<10 + 3} {
			value := make([]byte, size)
			rand.New(rand.NewSource(20260926)).Read(value)
			shards, err := c.Encode(value)
			if err != nil {
				t.Fatalf("%s: Encode(%d bytes): %v", g.name, size, err)
			}
			h := sha256.New()
			for _, shard := range shards {
				n := len(shard)
				h.Write([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)})
				h.Write(shard)
			}
			got = append(got, hex.EncodeToString(h.Sum(nil)))
		}
		if !slices.Equal(got, g.digests) {
			t.Errorf("%s: Encode output changed\n got  %q\n want %q", g.name, got, g.digests)
		}
	}
}
