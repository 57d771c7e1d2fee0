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
// {0, 1, B-1, B, 4 KiB, 16 KiB+3}, B the code's stripe size. The msr and rs
// digests were generated at commit 7488bb2, the last one whose kernels were
// the log/exp loops, so passing means the shard bytes themselves, not only
// the round trip, are what that build stored and its elements still decode.
// The mbr digests were regenerated when the MBR code became systematic on
// nodes 0..k-1 (Psi became Vandermonde * B, see package mbr): that changed
// every node's coded bytes on purpose, and an element stored before it does
// not decode after it (nodehost refuses such mixed builds by fingerprint).
// The empty value still encodes to all-zero shards, so its digest stayed.
var goldenEncodings = []struct {
	name    string
	build   func() (erasure.Code, error)
	digests []string
}{
	{"mbr(14,4,4)", func() (erasure.Code, error) { return mbr.New(erasure.Params{N: 14, K: 4, D: 4}) }, []string{
		"33af8d6243a4a9fcf6d865d9f09404334e8c45b62135649a92e2b0d86af3568e",
		"7fce167c96d2d95755e7b06e5b50dbc0f30b3609e0944631e1d7bf863dd2fce9",
		"8e9b4d7223aceded8216c08a32d8c1bbf328b516a526ff511f8afa4065c99c85",
		"3ac29f6a3525b10872ebdf1b52be213d305da09504b9e67c6ad26e1c6571c915",
		"39ed29c9f4fa12980b0e9cdf03753a12bbe21b937512a8bd57369049b9772e6d",
		"8da987e7eebd522888d5f0b259db5f7ed8181fab93d2b11f9f223baa815820eb",
	}},
	{"mbr(15,5,8)", func() (erasure.Code, error) { return mbr.New(erasure.Params{N: 15, K: 5, D: 8}) }, []string{
		"ed76067d8ff2cc99655de317cd396fbeb2dd7ec50dbefc4433dea2bc49010e83",
		"a03fb94fd04ff9691d63c20ad7b70be46839ba663b1fad6f3052d0e6cf63a252",
		"25617335cebbff96f96af0e69cc53447af432dc337ceb7af62501be6cc286f25",
		"56ad65751fec9ba71d49a6f9a8b2c177b9f470ca788842d93a68ee65f00271bd",
		"6b04d73a1310a765a1019efb3e5c905b6a0e0ed480109127fbcb264f920aebc4",
		"e86843ce39be8d31aa341414d1ef8c18212404afa1fa2e72d2dc4dcf161234d9",
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
