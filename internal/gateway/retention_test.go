package gateway

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestIdleGroupsPinOnlyStoredBytes: once writes have settled, what the
// process keeps alive is the L2 coded elements (Lemma V.3's storage) plus
// per-group bookkeeping -- not the last offload round's shards in every L1
// server, the last messages in every channet mailbox, or the last read's
// coded elements in every pooled reader, which together held 8.5x the
// stored bytes before those three were released.
func TestIdleGroupsPinOnlyStoredBytes(t *testing.T) {
	const keys, valueSize = 64, 16 << 10
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	g, err := New(Config{Shards: 4, Params: testParams(t, 6, 8, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	value := make([]byte, valueSize)
	rand.New(rand.NewSource(1)).Read(value)
	for round := 0; round < 2; round++ {
		for _, key := range testKeys(keys) {
			if _, err := g.Put(ctx, key, value); err != nil {
				t.Fatal(err)
			}
			if err := g.WaitIdle(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			// Settled, so this read regenerates coded elements from L2.
			if _, _, err := g.Get(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := g.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	live, stored := heap()-before, g.PermanentBytes()
	t.Logf("live heap %.1f MiB, stored %.1f MiB (%.1fx)", float64(live)/(1<<20), float64(stored)/(1<<20), float64(live)/float64(stored))
	if limit := 3*stored + 1<<20; live > limit {
		t.Errorf("live heap after settling is %d bytes for %d stored bytes, want <= %d", live, stored, limit)
	}
}
