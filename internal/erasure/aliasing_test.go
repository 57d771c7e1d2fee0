package erasure_test

// Buffer-aliasing safety tests for the erasure layer. The codes alias their
// inputs read-only (message lanes are slices of the caller's value, shard
// and helper lanes slices of the caller's shards) and hold no state between
// calls, so these tests pin the two contracts the rest of the system depends
// on: outputs (Encode, EncodeNodes, Decode, Regenerate) are freshly
// allocated -- a retaining consumer such as an L2 server or the history
// checker can hold them forever, and corrupting them never bleeds into
// later calls -- and one shared Code value is safe under concurrent use
// (the -race CI jobs run these).

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/erasure/msr"
	"github.com/lds-storage/lds/internal/erasure/rs"
)

// aliasingCodes builds one instance of every code under test.
func aliasingCodes(t *testing.T) map[string]erasure.Code {
	t.Helper()
	mb, err := mbr.New(erasure.Params{N: 9, K: 3, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := msr.New(8, 3) // d = 2k-2 = 4
	if err != nil {
		t.Fatal(err)
	}
	r, err := rs.New(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]erasure.Code{"mbr": mb, "msr": ms, "rs": r}
}

func patternValue(n int, seed byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = seed + byte(i*7)
	}
	return v
}

func decodeFrom(t *testing.T, c erasure.Code, shards [][]byte, valueLen int) []byte {
	t.Helper()
	k := c.Params().K
	in := make([]erasure.Shard, k)
	for i := 0; i < k; i++ {
		in[i] = erasure.Shard{Index: i, Data: shards[i]}
	}
	out, err := c.Decode(valueLen, in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAliasingEncodeOutputsFresh: corrupting one call's shards must not
// affect another call's, and must not affect future calls.
func TestAliasingEncodeOutputsFresh(t *testing.T) {
	for name, c := range aliasingCodes(t) {
		t.Run(name, func(t *testing.T) {
			v1 := patternValue(1024, 1)
			v2 := patternValue(1024, 2)
			s1, err := c.Encode(v1)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := c.Encode(v2)
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt every byte of the first call's outputs: if the encoder
			// recycled output storage, s2 or a later call would now be wrong.
			for _, s := range s1 {
				for i := range s {
					s[i] = 0xAA
				}
			}
			if got := decodeFrom(t, c, s2, len(v2)); !bytes.Equal(got, v2) {
				t.Error("second encode's shards corrupted by scribbling the first's")
			}
			s3, err := c.Encode(v1)
			if err != nil {
				t.Fatal(err)
			}
			if got := decodeFrom(t, c, s3, len(v1)); !bytes.Equal(got, v1) {
				t.Error("encode after corruption returned wrong shards")
			}
		})
	}
}

// TestAliasingDecodeOutputsFresh: a decoded value handed to a retaining
// consumer (the history checker keeps every read result) must not share
// storage with decoder scratch or later results.
func TestAliasingDecodeOutputsFresh(t *testing.T) {
	for name, c := range aliasingCodes(t) {
		t.Run(name, func(t *testing.T) {
			v := patternValue(1024, 3)
			shards, err := c.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			out1 := decodeFrom(t, c, shards, len(v))
			for i := range out1 {
				out1[i] = 0x55
			}
			out2 := decodeFrom(t, c, shards, len(v))
			if !bytes.Equal(out2, v) {
				t.Error("decode result corrupted by scribbling an earlier result")
			}
		})
	}
}

// TestAliasingRegenerateOutputsFresh: regenerated shards go straight into
// QueryDataResp messages and L2 repair writes, both retaining consumers.
func TestAliasingRegenerateOutputsFresh(t *testing.T) {
	for name, c := range aliasingCodes(t) {
		rc, ok := c.(erasure.Regenerating)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			v := patternValue(1024, 4)
			shards, err := rc.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			const failed = 0
			regen := func() []byte {
				helpers := make([]erasure.Helper, 0, rc.Params().D)
				for h := 1; h <= rc.Params().D; h++ {
					data, err := rc.Helper(shards[h], h, failed)
					if err != nil {
						t.Fatal(err)
					}
					helpers = append(helpers, erasure.Helper{Index: h, Data: data})
				}
				out, err := rc.Regenerate(failed, helpers)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			r1 := regen()
			if !bytes.Equal(r1, shards[failed]) {
				t.Fatal("regeneration did not reproduce the lost shard")
			}
			for i := range r1 {
				r1[i] = 0x77
			}
			if r2 := regen(); !bytes.Equal(r2, shards[failed]) {
				t.Error("regenerate result corrupted by scribbling an earlier result")
			}
		})
	}
}

// TestAliasingConcurrentScratch hammers one shared Code from many
// goroutines; every round-trip must stay independent (run under -race in
// CI).
func TestAliasingConcurrentScratch(t *testing.T) {
	for name, c := range aliasingCodes(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for iter := 0; iter < 50; iter++ {
						v := patternValue(512+g*13, byte(g*31+iter))
						shards, err := c.Encode(v)
						if err != nil {
							errs <- err
							return
						}
						k := c.Params().K
						in := make([]erasure.Shard, k)
						for i := 0; i < k; i++ {
							in[i] = erasure.Shard{Index: i, Data: shards[i]}
						}
						out, err := c.Decode(len(v), in)
						if err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(out, v) {
							errs <- fmt.Errorf("goroutine %d iter %d: round-trip mismatch", g, iter)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
