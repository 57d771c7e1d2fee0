package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/history"
	"github.com/lds-storage/lds/internal/lds"
	"github.com/lds-storage/lds/internal/transport"
)

func testParams(t testing.TB, n1, n2, f1, f2 int) lds.Params {
	t.Helper()
	p, err := lds.NewParams(n1, n2, f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	return keys
}

func TestRingDeterminism(t *testing.T) {
	a, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(1000) {
		if a.Shard(key) != b.Shard(key) {
			t.Fatalf("key %q: ring assignment not deterministic (%d vs %d)", key, a.Shard(key), b.Shard(key))
		}
	}
}

// TestRingGolden pins the key-to-shard mapping: a catalog persists
// placements and object bindings per shard, so a ring change that moved
// any of these keys would strand keys a restarted gateway reloads.
func TestRingGolden(t *testing.T) {
	keys := []string{"", "alpha", "beta", "gamma", "user-0001", "user-0002", "user-0059",
		"key-0000", "key-0001", "key-0002", "key-0003", "key-0999", "restart-0", "a/b/c", "\x00\xff"}
	golden := map[int][]int{
		2: {1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0},
		4: {1, 0, 2, 1, 1, 0, 1, 0, 0, 3, 0, 3, 2, 2, 0},
		5: {1, 4, 4, 1, 1, 4, 1, 0, 0, 3, 0, 4, 2, 2, 0},
	}
	for shards, want := range golden {
		r, err := NewRing(shards)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range keys {
			if got := r.Shard(key); got != want[i] {
				t.Errorf("S=%d: key %q on shard %d, want %d", shards, key, got, want[i])
			}
		}
	}
}

func TestRingSpreadAndChurn(t *testing.T) {
	keys := testKeys(4000)
	r4, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}

	// Spread: every shard owns a non-trivial share of a large keyspace.
	counts := make([]int, 4)
	for _, key := range keys {
		counts[r4.Shard(key)]++
	}
	for s, c := range counts {
		if c < len(keys)/16 {
			t.Errorf("shard %d owns only %d/%d keys; ring is badly unbalanced", s, c, len(keys))
		}
	}

	// Churn: growing 4 -> 5 shards should remap roughly 1/5 of the keys,
	// not rehash the world. Allow a generous margin over the expectation.
	r5, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, key := range keys {
		if r4.Shard(key) != r5.Shard(key) {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(keys)); frac > 0.45 {
		t.Errorf("growing 4->5 shards moved %.0f%% of keys; consistent hashing should move ~20%%", frac*100)
	}
}

func TestGatewayPutGet(t *testing.T) {
	g, err := New(Config{
		Shards:       2,
		Params:       testParams(t, 4, 4, 1, 1),
		InitialValue: []byte("v0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A fresh key serves the initial value at the zero tag.
	v, tg, err := g.Get(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v0" || !tg.IsZero() {
		t.Fatalf("fresh key: got (%q, %v), want (v0, zero tag)", v, tg)
	}

	wt, err := g.Put(ctx, "alpha", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	v, rt, err := g.Get(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "hello" || rt.Less(wt) {
		t.Fatalf("got (%q, %v) after writing tag %v", v, rt, wt)
	}

	// Keys are independent registers: alpha's write must not leak.
	v, _, err = g.Get(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v0" {
		t.Fatalf("key isolation broken: fresh = %q after writing alpha", v)
	}
}

// TestGatewayConcurrentAtomicityPerKey drives concurrent mixed
// readers/writers over many keys through one gateway and runs the paper's
// atomicity checker (Lemma 13.16 conditions) on every per-key history.
func TestGatewayConcurrentAtomicityPerKey(t *testing.T) {
	const (
		shards        = 4
		keys          = 12
		clientsPerKey = 2 // of each kind
		opsPerClient  = 6
	)
	g, err := New(Config{
		Shards:   shards,
		Params:   testParams(t, 4, 4, 1, 1),
		PoolSize: clientsPerKey,
		Latency: transport.LatencyModel{
			ChaosMax: 300 * time.Microsecond, // stress reordering
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	recorders := make([]*history.Recorder, keys)
	for i := range recorders {
		recorders[i] = history.NewRecorder()
	}
	var wg sync.WaitGroup
	var failed sync.Map
	for ki := 0; ki < keys; ki++ {
		key := fmt.Sprintf("atomic-%d", ki)
		rec := recorders[ki]
		for c := 1; c <= clientsPerKey; c++ {
			wg.Add(2)
			go func(c int) {
				defer wg.Done()
				for op := 0; op < opsPerClient; op++ {
					value := fmt.Sprintf("%s/w%d/%d", key, c, op)
					start := time.Now()
					tg, err := g.Put(ctx, key, []byte(value))
					if err != nil {
						failed.Store(key, err)
						return
					}
					rec.Add(history.Op{
						Kind: history.OpWrite, Client: int32(c),
						Start: start, End: time.Now(), Tag: tg, Value: value,
					})
				}
			}(c)
			go func(c int) {
				defer wg.Done()
				for op := 0; op < opsPerClient; op++ {
					start := time.Now()
					v, tg, err := g.Get(ctx, key)
					if err != nil {
						failed.Store(key, err)
						return
					}
					rec.Add(history.Op{
						Kind: history.OpRead, Client: int32(c),
						Start: start, End: time.Now(), Tag: tg, Value: string(v),
					})
				}
			}(c)
		}
	}
	wg.Wait()
	failed.Range(func(k, v any) bool {
		t.Fatalf("operation on key %v failed: %v", k, v)
		return false
	})

	for ki, rec := range recorders {
		ops := rec.Ops()
		if len(ops) != 2*clientsPerKey*opsPerClient {
			t.Fatalf("key %d: recorded %d ops, want %d", ki, len(ops), 2*clientsPerKey*opsPerClient)
		}
		for _, v := range history.Verify(ops) {
			t.Errorf("key %d: %v", ki, v)
		}
		for _, v := range history.VerifyUniqueValues(ops, "") {
			t.Errorf("key %d: %v", ki, v)
		}
	}
}

// TestShardAssignmentStability checks that the key->shard map is a pure
// function of the configuration: identical across gateway instances, and
// unchanged for existing keys as unrelated keys churn through the system.
func TestShardAssignmentStability(t *testing.T) {
	cfg := Config{Shards: 4, Params: testParams(t, 4, 4, 1, 1)}
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()

	keys := testKeys(200)
	before := make(map[string]int, len(keys))
	for _, key := range keys {
		before[key] = g1.ShardFor(key)
		if got := g2.ShardFor(key); got != before[key] {
			t.Fatalf("key %q: instance disagreement (%d vs %d)", key, before[key], got)
		}
	}

	// Churn: instantiate and write a disjoint set of keys, then re-check.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("churn-%d", i)
		if _, err := g1.Put(ctx, key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range keys {
		if got := g1.ShardFor(key); got != before[key] {
			t.Errorf("key %q moved from shard %d to %d under churn", key, before[key], got)
		}
	}
}

// TestFaultIsolation crashes up to (and then beyond) the tolerated number
// of servers inside one shard's groups and checks that (a) the shard keeps
// serving within tolerance, (b) other shards never notice, even when the
// crashed shard is fully dead.
func TestFaultIsolation(t *testing.T) {
	params := testParams(t, 4, 5, 1, 1) // f1 = 1, f2 = 1, k = 2, d = 3
	g, err := New(Config{Shards: 4, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Find keys on two distinct shards.
	keyA := "victim"
	var keyB string
	for i := 0; ; i++ {
		keyB = fmt.Sprintf("healthy-%d", i)
		if g.ShardFor(keyB) != g.ShardFor(keyA) {
			break
		}
	}
	sa := g.ShardFor(keyA)

	if _, err := g.Put(ctx, keyA, []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Put(ctx, keyB, []byte("b1")); err != nil {
		t.Fatal(err)
	}

	// Crash f1 L1 servers and f2 L2 servers in the victim shard only.
	g.CrashShardL1(sa, 0)
	g.CrashShardL2(sa, 0)

	// Within tolerance: the victim shard still serves reads and writes.
	if _, err := g.Put(ctx, keyA, []byte("a2")); err != nil {
		t.Fatalf("victim shard within tolerance failed a write: %v", err)
	}
	v, _, err := g.Get(ctx, keyA)
	if err != nil {
		t.Fatalf("victim shard within tolerance failed a read: %v", err)
	}
	if string(v) != "a2" {
		t.Fatalf("victim read %q, want a2", v)
	}

	// Beyond tolerance: kill two more L1 servers (3 of 4 down, quorum
	// f1+k = 3 unreachable). Operations on the victim must now stall ...
	g.CrashShardL1(sa, 1)
	g.CrashShardL1(sa, 2)
	shortCtx, shortCancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer shortCancel()
	if _, err := g.Put(shortCtx, keyA, []byte("a3")); err == nil {
		t.Fatal("write to a dead shard unexpectedly succeeded")
	}

	// ... while every other shard, sharing the same transport, is unmoved.
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("healthy-%d", i)
		if g.ShardFor(key) == sa {
			continue
		}
		if _, err := g.Put(ctx, key, []byte("ok")); err != nil {
			t.Fatalf("healthy shard %d failed after sibling crash: %v", g.ShardFor(key), err)
		}
		if _, _, err := g.Get(ctx, key); err != nil {
			t.Fatalf("healthy shard %d failed a read after sibling crash: %v", g.ShardFor(key), err)
		}
	}
}

// TestStatsAndStorage checks the per-shard accounting: op counts, key
// counts, and the storage probes behind the rebalancing signals.
func TestStatsAndStorage(t *testing.T) {
	params := testParams(t, 4, 4, 1, 1)
	g, err := New(Config{Shards: 3, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const (
		keys      = 9
		valueSize = 256
	)
	value := make([]byte, valueSize)
	var puts, gets uint64
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("stat-%d", i)
		if _, err := g.Put(ctx, key, value); err != nil {
			t.Fatal(err)
		}
		puts++
		if _, _, err := g.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
		gets++
	}
	if err := g.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	stats := g.Stats()
	if len(stats) != 3 {
		t.Fatalf("got %d shard stats, want 3", len(stats))
	}
	var totKeys int
	var totReads, totWrites, totWriteBytes uint64
	for _, s := range stats {
		totKeys += s.Keys
		totReads += s.Reads
		totWrites += s.Writes
		totWriteBytes += s.WriteBytes
		if s.ReadErrors != 0 || s.WriteErrors != 0 {
			t.Errorf("shard %d reported errors: %d read, %d write", s.Shard, s.ReadErrors, s.WriteErrors)
		}
	}
	if totKeys != keys {
		t.Errorf("keys = %d, want %d", totKeys, keys)
	}
	if totReads != gets || totWrites != puts {
		t.Errorf("ops = (%d reads, %d writes), want (%d, %d)", totReads, totWrites, gets, puts)
	}
	if totWriteBytes != puts*valueSize {
		t.Errorf("write bytes = %d, want %d", totWriteBytes, puts*valueSize)
	}

	// After quiescence all temporary storage is garbage-collected, and
	// permanent storage holds exactly one stripe per key.
	if tmp := g.TemporaryBytes(); tmp != 0 {
		t.Errorf("temporary bytes = %d after quiescence, want 0", tmp)
	}
	code, err := params.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(keys * params.N2 * code.ShardSize(valueSize))
	if perm := g.PermanentBytes(); perm != want {
		t.Errorf("permanent bytes = %d, want %d", perm, want)
	}
}

// TestBackpressure forces MaxOpsPerShard = 1 and checks that concurrent
// operations on one shard serialize rather than fail.
func TestBackpressure(t *testing.T) {
	g, err := New(Config{
		Shards:         1,
		Params:         testParams(t, 4, 4, 1, 1),
		MaxOpsPerShard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := g.Put(ctx, fmt.Sprintf("bp-%d", i), []byte("v")); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("backpressured put failed: %v", err)
	}
}

func TestEnsure(t *testing.T) {
	params := testParams(t, 4, 4, 1, 1)
	g, err := New(Config{Shards: 2, Params: params, InitialValue: make([]byte, 128)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	keys := testKeys(6)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Ensure(ctx, keys...); err != nil {
		t.Fatal(err)
	}
	if err := g.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	code, err := params.NewCode()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(keys) * params.N2 * code.ShardSize(128))
	if perm := g.PermanentBytes(); perm != want {
		t.Errorf("permanent bytes after Ensure = %d, want %d (v0 coded up front)", perm, want)
	}
}

// TestGatewayCloseRace is the regression for the Close race: operations
// hammered concurrently with Close must neither panic nor hang (they ran
// on the torn-down network before ops were gated on the closed flag) and
// must fail with ErrClosed once the gateway is closing.
func TestGatewayCloseRace(t *testing.T) {
	for iter := 0; iter < 3; iter++ {
		g, err := New(Config{Shards: 2, Params: testParams(t, 4, 4, 1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background() // deliberately unbounded: Close must unblock ops itself
		var wg sync.WaitGroup
		errs := make(chan error, 256)
		start := make(chan struct{})
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for j := 0; ; j++ {
					key := fmt.Sprintf("close-race-%d-%d", i%4, j%3)
					var err error
					switch j % 3 {
					case 0:
						_, err = g.Put(ctx, key, []byte("v"))
					case 1:
						_, _, err = g.Get(ctx, key)
					default:
						err = g.Ensure(ctx, key)
					}
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							errs <- fmt.Errorf("op failed with %w, want ErrClosed", err)
						}
						return
					}
				}
			}(i)
		}
		close(start)
		time.Sleep(time.Duration(iter) * 2 * time.Millisecond) // vary the interleaving
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			if err := g.Close(); err != nil {
				errs <- err
			}
		}()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("Close hung with operations in flight")
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("operations hung across Close")
		}
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		// Ops after Close fail cleanly too.
		if _, err := g.Put(ctx, "post", []byte("v")); !errors.Is(err, ErrClosed) {
			t.Errorf("Put after Close = %v, want ErrClosed", err)
		}
		if err := g.Ensure(ctx, "post"); !errors.Is(err, ErrClosed) {
			t.Errorf("Ensure after Close = %v, want ErrClosed", err)
		}
	}
}

// TestObserveErrorAccounting pins the stats-skew fix: failed operations
// must touch only the error counters — their zeroed payload and their
// wall-clock time must not dilute the byte totals and mean latencies the
// rebalancer consumes.
func TestObserveErrorAccounting(t *testing.T) {
	g, err := New(Config{Shards: 1, Params: testParams(t, 4, 4, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sh := g.shardList()[0]

	sh.observe(false, 5*time.Millisecond, 100, nil)
	sh.observe(false, 15*time.Millisecond, 300, nil)
	sh.observe(false, 90*time.Millisecond, 0, errors.New("boom"))
	sh.observe(true, 10*time.Millisecond, 200, nil)
	sh.observe(true, 400*time.Millisecond, 0, errors.New("boom"))

	s := sh.snapshot()
	if s.Reads != 2 || s.ReadErrors != 1 || s.Writes != 1 || s.WriteErrors != 1 {
		t.Fatalf("counts = %d/%d reads, %d/%d writes; want 2/1 and 1/1",
			s.Reads, s.ReadErrors, s.Writes, s.WriteErrors)
	}
	if s.ReadBytes != 400 || s.WriteBytes != 200 {
		t.Errorf("bytes = %d read, %d write; want 400 and 200", s.ReadBytes, s.WriteBytes)
	}
	if s.ReadLatency != 20*time.Millisecond {
		t.Errorf("cumulative read latency %v includes failed ops, want 20ms", s.ReadLatency)
	}
	if got := s.MeanReadLatency(); got != 10*time.Millisecond {
		t.Errorf("MeanReadLatency = %v, want 10ms", got)
	}
	if got := s.MeanWriteLatency(); got != 10*time.Millisecond {
		t.Errorf("MeanWriteLatency = %v, want 10ms", got)
	}
	if got := (ShardStats{}).MeanReadLatency(); got != 0 {
		t.Errorf("MeanReadLatency with zero reads = %v, want 0", got)
	}
	if s.Ops() != 3 {
		t.Errorf("Ops() = %d, want 3 (successes only)", s.Ops())
	}
}

// TestEnsureBoundedAndCancelable pins the Ensure fix: it must respect the
// per-shard semaphore (no construction stampede) and honor its context.
func TestEnsureBoundedAndCancelable(t *testing.T) {
	g, err := New(Config{
		Shards:         1,
		Params:         testParams(t, 4, 4, 1, 1),
		MaxOpsPerShard: 1, // serialize all group construction
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Concurrent large Ensures through a 1-token semaphore must complete
	// (bounded, not deadlocked).
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = fmt.Sprintf("ensure-%d", (w*4+i)%16) // overlapping sets
			}
			if err := g.Ensure(ctx, keys...); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("bounded Ensure failed: %v", err)
	}
	if got := g.Stats()[0].Keys; got != 16 {
		t.Errorf("ensured %d keys, want 16", got)
	}

	// A canceled context aborts promptly.
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := g.Ensure(canceled, "late-1", "late-2"); !errors.Is(err, context.Canceled) {
		t.Errorf("Ensure with canceled ctx = %v, want context.Canceled", err)
	}
}
