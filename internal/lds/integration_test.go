package lds_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/sim"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

const testTimeout = 30 * time.Second

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	t.Cleanup(cancel)
	return ctx
}

func newCluster(t *testing.T, cfg sim.Config) *sim.Cluster {
	t.Helper()
	c, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	t.Cleanup(func() {
		if v := c.Violations(); v != 0 {
			t.Errorf("protocol invariant violations: %d", v)
		}
		c.Close()
	})
	return c
}

func smallParams(t *testing.T) sim.Config {
	t.Helper()
	return sim.Config{Params: sim.MustParams(4, 5, 1, 1)} // k=2, d=3
}

func TestWriteThenRead(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, err := c.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}

	value := []byte("consistent edge storage")
	wt, err := w.Write(ctx, value)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if wt.Z != 1 || wt.W != 1 {
		t.Errorf("write tag = %v, want (1,1)", wt)
	}

	got, rt, err := r.Read(ctx)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Errorf("Read = %q, want %q", got, value)
	}
	if rt.Less(wt) {
		t.Errorf("read tag %v older than completed write %v", rt, wt)
	}
}

func TestReadInitialValue(t *testing.T) {
	// Before any write, L1 lists hold only (t0, bot): the read must fall
	// back to regeneration from L2, decode v0 from k coded elements, and
	// return it (the paper's initial-state semantics).
	ctx := testCtx(t)
	cfg := smallParams(t)
	cfg.InitialValue = []byte("genesis")
	c := newCluster(t, cfg)
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	got, rt, err := r.Read(ctx)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, []byte("genesis")) {
		t.Errorf("Read = %q, want initial value", got)
	}
	if !rt.IsZero() {
		t.Errorf("read tag = %v, want t0", rt)
	}
}

func TestReadEmptyInitialValue(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Read(ctx)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("Read = %q, want empty initial value", got)
	}
}

func TestReadAfterOffloadUsesRegeneration(t *testing.T) {
	// After the write's asynchronous tail completes, L1 values are garbage
	// collected; a subsequent read must regenerate coded elements from L2
	// and still return the exact value.
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, _ := c.Writer(1)
	r, _ := c.Reader(1)

	value := make([]byte, 3000)
	rand.New(rand.NewSource(1)).Read(value)
	if _, err := w.Write(ctx, value); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	if got := c.TemporaryStorageBytes(); got != 0 {
		t.Fatalf("temporary storage after offload = %d bytes, want 0 (GC)", got)
	}
	got, _, err := r.Read(ctx)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, value) {
		t.Error("regenerated read returned wrong value")
	}
}

func TestSequentialWritesMonotoneTags(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, _ := c.Writer(1)
	r, _ := c.Reader(1)

	var last tag.Tag
	for i := 0; i < 5; i++ {
		wt, err := w.Write(ctx, []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !last.Less(wt) {
			t.Fatalf("tags not increasing: %v then %v", last, wt)
		}
		last = wt
	}
	got, rt, err := r.Read(ctx)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "v4" {
		t.Errorf("Read = %q, want last written v4", got)
	}
	if rt != last {
		t.Errorf("read tag = %v, want %v", rt, last)
	}
}

func TestTwoWritersInterleaved(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w1, _ := c.Writer(1)
	w2, _ := c.Writer(2)
	r, _ := c.Reader(1)

	t1, err := w1.Write(ctx, []byte("from writer 1"))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := w2.Write(ctx, []byte("from writer 2"))
	if err != nil {
		t.Fatal(err)
	}
	if !t1.Less(t2) {
		t.Errorf("second write's tag %v not above first's %v", t2, t1)
	}
	got, _, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "from writer 2" {
		t.Errorf("Read = %q, want the later write", got)
	}
}

func TestReadYourOwnWriteRepeatedly(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, sim.Config{Params: sim.MustParams(6, 8, 1, 2)}) // k=4, d=4
	w, _ := c.Writer(1)
	r, _ := c.Reader(1)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10; i++ {
		value := make([]byte, rng.Intn(2048))
		rng.Read(value)
		if _, err := w.Write(ctx, value); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, _, err := r.Read(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("read %d: value mismatch (len %d vs %d)", i, len(got), len(value))
		}
	}
}

func TestLivenessWithMaxL1Crashes(t *testing.T) {
	// f1 L1 servers crash; every operation must still complete
	// (Theorem IV.8).
	ctx := testCtx(t)
	c := newCluster(t, sim.Config{Params: sim.MustParams(5, 5, 2, 1)}) // k=1, d=3
	c.CrashL1(0)
	c.CrashL1(3)
	w, _ := c.Writer(1)
	r, _ := c.Reader(1)
	if _, err := w.Write(ctx, []byte("despite crashes")); err != nil {
		t.Fatalf("Write with f1 crashes: %v", err)
	}
	got, _, err := r.Read(ctx)
	if err != nil {
		t.Fatalf("Read with f1 crashes: %v", err)
	}
	if string(got) != "despite crashes" {
		t.Errorf("Read = %q", got)
	}
}

func TestLivenessWithMaxL2Crashes(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, sim.Config{Params: sim.MustParams(4, 8, 1, 2)}) // k=2, d=4
	c.CrashL2(1)
	c.CrashL2(6)
	w, _ := c.Writer(1)
	r, _ := c.Reader(1)
	if _, err := w.Write(ctx, []byte("l2 crashes")); err != nil {
		t.Fatalf("Write with f2 crashes: %v", err)
	}
	// Force the read through the regeneration path.
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Read(ctx)
	if err != nil {
		t.Fatalf("Read with f2 crashes: %v", err)
	}
	if string(got) != "l2 crashes" {
		t.Errorf("Read = %q", got)
	}
}

func TestLivenessWithBothLayerCrashes(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, sim.Config{Params: sim.MustParams(5, 7, 2, 2), Seed: 3,
		Latency: transport.LatencyModel{ChaosMax: 2 * time.Millisecond}})
	c.CrashL1(2)
	c.CrashL1(4)
	c.CrashL2(0)
	c.CrashL2(5)
	w, _ := c.Writer(1)
	r, _ := c.Reader(1)
	for i := 0; i < 3; i++ {
		v := []byte(fmt.Sprintf("round %d", i))
		if _, err := w.Write(ctx, v); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, _, err := r.Read(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("read %d = %q, want %q", i, got, v)
		}
	}
}

func TestCrashMidWriteStillCompletes(t *testing.T) {
	// Crash an L1 server partway through one of its steps, at a seeded step
	// of a write; the write and a later read must still terminate, and the
	// read must return the write.
	p := sim.MustParams(4, 5, 1, 1)
	for seed := int64(0); seed < 50 && !t.Failed(); seed++ {
		c := newStepCluster(t, p, seed)
		c.writer(p, 1, 1)
		c.crashAt[wire.ProcID{Role: wire.RoleL1, Index: 3}] = c.rng.Intn(60)
		c.run()
		c.reader(p, 1, 1)
		c.run()
		c.check()
		if w, r := c.ops[0], c.ops[1]; r.Value != w.Value {
			t.Errorf("seed %d: read %q after the write of %q", seed, r.Value, w.Value)
		}
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, sim.Config{
		Params:  sim.MustParams(6, 8, 1, 2),
		Latency: transport.LatencyModel{ChaosMax: time.Millisecond},
		Seed:    5,
	})
	w, _ := c.Writer(1)

	var wg sync.WaitGroup
	writes := 8
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if _, err := w.Write(ctx, []byte(fmt.Sprintf("value-%02d", i))); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()

	const readers = 4
	for ri := 0; ri < readers; ri++ {
		r, err := c.Reader(int32(ri + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastTag tag.Tag
			for i := 0; i < 6; i++ {
				got, rt, err := r.Read(ctx)
				if err != nil {
					t.Errorf("reader %v read %d: %v", r.ID(), i, err)
					return
				}
				// Per-reader monotonicity: a later read never returns an
				// older tag (a consequence of atomicity).
				if rt.Less(lastTag) {
					t.Errorf("reader %v: tag went backwards %v -> %v", r.ID(), lastTag, rt)
					return
				}
				lastTag = rt
				if len(got) != 0 && len(got) != 8 {
					t.Errorf("reader %v: unexpected value %q", r.ID(), got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestReaderServedFromTemporaryStorageUnderConcurrency(t *testing.T) {
	// With a slow L1->L2 link, a read issued right after a write finds the
	// value still in L1 (delta > 0 regime): it must be served a full value
	// without waiting for L2 regeneration round trips.
	ctx := testCtx(t)
	c := newCluster(t, sim.Config{
		Params: sim.MustParams(4, 5, 1, 1),
		Latency: transport.LatencyModel{
			Tau0: 100 * time.Microsecond,
			Tau1: 100 * time.Microsecond,
			Tau2: 200 * time.Millisecond, // back-end is far away
		},
	})
	w, _ := c.Writer(1)
	r, _ := c.Reader(1)

	start := time.Now()
	if _, err := w.Write(ctx, []byte("hot object")); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if string(got) != "hot object" {
		t.Errorf("Read = %q", got)
	}
	// Write (4*tau1+2*tau0 ~ 600us) plus read served from L1 (~600us) must
	// come in far below a single tau2 hop (200ms): any wait on the slow
	// back-end link would add at least one tau2. The wide margin keeps the
	// check robust under CPU contention from parallel test runs.
	if elapsed > 150*time.Millisecond {
		t.Errorf("read under concurrency took %v; it must not wait for the slow L2 link (tau2 = 200ms)", elapsed)
	}
}

func TestWriterTagReflectsEarlierWriters(t *testing.T) {
	// A new writer must see tags of previous writers through get-tag.
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w1, _ := c.Writer(1)
	w5, _ := c.Writer(5)
	t1, err := w1.Write(ctx, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	t5, err := w5.Write(ctx, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if t5.Z != t1.Z+1 {
		t.Errorf("second writer z = %d, want %d", t5.Z, t1.Z+1)
	}
	if t5.W != 5 {
		t.Errorf("second writer id = %d, want 5", t5.W)
	}
}

func TestPermanentStorageBounded(t *testing.T) {
	// After many writes settle, each L2 server stores exactly one coded
	// element: alpha bytes per stripe (Lemma V.3's Theta(1) per object).
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, _ := c.Writer(1)
	value := make([]byte, 1000)
	for i := 0; i < 5; i++ {
		if _, err := w.Write(ctx, value); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	p := c.Params()
	code := c.Code()
	wantPerServer := int64(code.ShardSize(len(value)))
	for i := 0; i < p.N2; i++ {
		if got := c.L2(i).StoredBytes(); got != wantPerServer {
			t.Errorf("L2 server %d stores %d bytes, want %d", i, got, wantPerServer)
		}
	}
	total := c.PermanentStorageBytes()
	if total != wantPerServer*int64(p.N2) {
		t.Errorf("permanent storage = %d, want %d", total, wantPerServer*int64(p.N2))
	}
}

func TestOutstandingReadersDrainAfterReads(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, _ := c.Writer(1)
	if _, err := w.Write(ctx, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		r, _ := c.Reader(int32(i))
		if _, _, err := r.Read(ctx); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Params().N1; i++ {
		if got := c.L1(i).Bookkeeping().Readers; got != 0 {
			t.Errorf("L1 server %d still has %d registered readers", i, got)
		}
	}
}

func TestClusterBookkeepingBoundedUnderSustainedWrites(t *testing.T) {
	// End-to-end soak: thousands of writes through a real cluster must not
	// grow any L1 bookkeeping map. in-flight work is at most one write here
	// (sequential writer), so the bound is a small constant.
	if testing.Short() {
		t.Skip("sustained-write soak skipped in -short mode")
	}
	ctx := testCtx(t)
	c := newCluster(t, smallParams(t))
	w, _ := c.Writer(1)
	value := make([]byte, 256)
	const writes = 2000
	p := c.Params()
	// Per server: the committed entry plus a pipeline of <= 2*OffloadBatchCap
	// elements, plus a tag whose commit traffic is still settling.
	bound := p.N1 * (2 + 2*lds.OffloadBatchCap)
	for i := 1; i <= writes; i++ {
		if _, err := w.Write(ctx, value); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%250 == 0 {
			if err := c.WaitIdle(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := c.L1BookkeepingEntries(); got > bound {
				t.Fatalf("write %d: %d bookkeeping entries across L1, want <= %d", i, got, bound)
			}
			if got := c.TemporaryStorageBytes(); got != 0 {
				t.Fatalf("write %d: temporary storage = %d after settling, want 0", i, got)
			}
			if got := c.OffloadQueueDepth(); got != 0 {
				t.Fatalf("write %d: offload depth = %d after settling, want 0", i, got)
			}
		}
	}
	r, _ := c.Reader(1)
	got, rt, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value) || rt.Z != writes {
		t.Errorf("after soak: read tag %v (want z=%d), %d bytes", rt, writes, len(got))
	}
}

func TestLargeValuesAndOddSizes(t *testing.T) {
	ctx := testCtx(t)
	c := newCluster(t, sim.Config{Params: sim.MustParams(6, 8, 1, 2)})
	w, _ := c.Writer(1)
	r, _ := c.Reader(1)
	rng := rand.New(rand.NewSource(9))
	for _, size := range []int{1, 7, 100, 4096, 10_000} {
		value := make([]byte, size)
		rng.Read(value)
		if _, err := w.Write(ctx, value); err != nil {
			t.Fatalf("size %d: write: %v", size, err)
		}
		if err := c.WaitIdle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		got, _, err := r.Read(ctx)
		if err != nil {
			t.Fatalf("size %d: read: %v", size, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("size %d: mismatch", size)
		}
	}
}

// TestIdleClientsNeverBlockDelivery: a client's transport handler runs on
// the delivery goroutine that WaitIdle and Close wait for, and a client
// between operations drains nothing. More stale responses than its inbox
// holds must be dropped, not parked on: the network goes idle, closes, and
// the clients still work in between.
func TestIdleClientsNeverBlockDelivery(t *testing.T) {
	ctx := testCtx(t)
	c, err := sim.New(smallParams(t))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := w.Write(ctx, []byte("before the flood"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Read(ctx); err != nil {
		t.Fatal(err)
	}

	flooder, err := c.Network().Register(wire.ProcID{Role: wire.RoleL1, Index: 99}, func(wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	flood := 10 * 4 * (c.Params().N1 + 1) // ten inboxes' worth per client
	for i := 0; i < flood; i++ {
		for _, msg := range []wire.Message{
			wire.QueryTagResp{OpID: 1, Tag: wt},
			wire.PutDataResp{OpID: 2, Tag: wt},
			wire.PutDataResp{Tag: wt}, // broadcast-threshold ack: no op id
		} {
			if err := flooder.Send(w.ID(), msg); err != nil {
				t.Fatal(err)
			}
		}
		for _, msg := range []wire.Message{
			wire.QueryCommTagResp{OpID: 1, Tag: wt},
			wire.QueryDataResp{OpID: 2, Class: wire.PayloadNone, Tag: wt},
			wire.PutTagResp{OpID: 3},
		} {
			if err := flooder.Send(r.ID(), msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.WaitIdle(time.Second); err != nil {
		t.Fatalf("flooded idle clients wedged delivery: %v", err)
	}

	if _, err := w.Write(ctx, []byte("after the flood")); err != nil {
		t.Fatalf("write after flood: %v", err)
	}
	if got, _, err := r.Read(ctx); err != nil || string(got) != "after the flood" {
		t.Fatalf("read after flood: %q, %v", got, err)
	}

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not return within a second of the flood")
	}
}
