package gateway

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// liveHeap is the heap still reachable after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIdleGroupsPinOnlyStoredBytes: once writes have settled, what the
// process keeps alive is the L2 coded elements (Lemma V.3's storage) plus
// per-group bookkeeping -- not the last offload round's shards in every L1
// server, the last messages in every channet mailbox, or the last read's
// coded elements in every pooled reader, which together held 8.5x the
// stored bytes before those three were released.
func TestIdleGroupsPinOnlyStoredBytes(t *testing.T) {
	const keys, valueSize = 64, 16 << 10
	before := liveHeap()
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
	live, stored := liveHeap()-before, g.PermanentBytes()
	t.Logf("live heap %.1f MiB, stored %.1f MiB (%.1fx)", float64(live)/(1<<20), float64(stored)/(1<<20), float64(live)/float64(stored))
	if limit := 3*stored + 1<<20; live > limit {
		t.Errorf("live heap after settling is %d bytes for %d stored bytes, want <= %d", live, stored, limit)
	}
}

// TestIdleTCPGroupsPinOnlyStoredBytes is the tcp sibling: gateway and three
// node hosts in this process, so the heap counts every registered process
// of every group. A process is a table entry -- with a 1,024-slot channel
// each, the 18 x 64 of them carried ~37 MiB of empty buffers.
func TestIdleTCPGroupsPinOnlyStoredBytes(t *testing.T) {
	const keys, valueSize = 64, 16 << 10
	before := liveHeap()
	_, specs := startHosts(t, 3)
	g, err := New(Config{
		Params:   testParams(t, 6, 8, 1, 2),
		Topology: &Topology{Shards: []ShardSpec{{Backend: BackendTCP, Nodes: specs}, {Backend: BackendTCP, Nodes: specs}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	value := make([]byte, valueSize)
	rand.New(rand.NewSource(1)).Read(value)
	for _, key := range testKeys(keys) {
		if _, err := g.Put(ctx, key, value); err != nil {
			t.Fatal(err)
		}
	}
	// No WaitIdle over sockets: the offload has settled once every L1
	// server has handed its temporary copy to L2.
	var stored int64
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err := g.SyncRemoteStats(ctx); err != nil {
			t.Fatal(err)
		}
		if stored = g.PermanentBytes(); g.TemporaryBytes() == 0 && stored > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("offload did not settle: %d temporary bytes", g.TemporaryBytes())
		}
	}
	live := liveHeap() - before
	t.Logf("live heap %.1f MiB, stored %.1f MiB (%.1fx)", float64(live)/(1<<20), float64(stored)/(1<<20), float64(live)/float64(stored))
	// The constant is what sockets, frame pools and the per-key control
	// plane of 64 groups on four tcpnet networks keep (measured under 3 MiB).
	if limit := 3*stored + 4<<20; live > limit {
		t.Errorf("live heap after settling is %d bytes for %d stored bytes, want <= %d", live, stored, limit)
	}
}

// TestGoroutinesIndependentOfKeyCount: a key's servers and clients are
// entries in the transport's process table, so sixteen times the keys must
// not cost a single goroutine more than the actors the first few started.
func TestGoroutinesIndependentOfKeyCount(t *testing.T) {
	count := func(keys int) int {
		before := runtime.NumGoroutine()
		g, err := New(Config{Shards: 2, Params: testParams(t, 6, 8, 1, 2)})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := g.Ensure(ctx, testKeys(keys)...); err != nil {
			t.Fatal(err)
		}
		return runtime.NumGoroutine() - before
	}
	few, many := count(32), count(512)
	t.Logf("goroutines: %d for 32 keys, %d for 512 keys", few, many)
	if many-few >= 50 {
		t.Errorf("512 keys run on %d goroutines, 32 keys on %d: want a difference < 50", many, few)
	}
}
