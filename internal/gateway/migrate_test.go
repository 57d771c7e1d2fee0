package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lds-storage/lds/internal/history"
	"github.com/lds-storage/lds/internal/transport"
)

// TestMigrationSoak is the acceptance soak: a key under continuous
// concurrent reads and writes is migrated around the ring repeatedly. The
// per-key history must stay atomic (paper checker), no write may be lost,
// and every reaped group's namespace must return to the free list for
// later keys to reuse.
func TestMigrationSoak(t *testing.T) {
	g, err := New(Config{
		Shards:   3,
		Params:   testParams(t, 4, 4, 1, 1),
		PoolSize: 2,
		Latency: transport.LatencyModel{
			ChaosMax: 200 * time.Microsecond, // stress reordering during handoffs
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const key = "hot-key"
	rec := history.NewRecorder()
	stop := make(chan struct{})
	var (
		wg     sync.WaitGroup
		failed atomic.Value // first op error
	)
	for c := 1; c <= 2; c++ {
		wg.Add(2)
		go func(c int) { // writer
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				value := fmt.Sprintf("%s/w%d/%d", key, c, i)
				start := time.Now()
				tg, err := g.Put(ctx, key, []byte(value))
				if err != nil {
					failed.CompareAndSwap(nil, err)
					return
				}
				rec.Add(history.Op{
					Kind: history.OpWrite, Client: int32(c),
					Start: start, End: time.Now(), Tag: tg, Value: value,
				})
			}
		}(c)
		go func(c int) { // reader
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				v, tg, err := g.Get(ctx, key)
				if err != nil {
					failed.CompareAndSwap(nil, err)
					return
				}
				rec.Add(history.Op{
					Kind: history.OpRead, Client: int32(c),
					Start: start, End: time.Now(), Tag: tg, Value: string(v),
				})
			}
		}(c)
	}

	// Migrate the key around the ring while the load runs, pacing each
	// round on observed history growth so handoffs genuinely interleave
	// with operations.
	const migrations = 6
	for round := 0; round < migrations; round++ {
		for target := rec.Len() + 4; rec.Len() < target && ctx.Err() == nil; {
			time.Sleep(time.Millisecond)
		}
		to := (g.ShardFor(key) + 1) % g.Shards()
		if err := g.MigrateKey(ctx, key, to); err != nil {
			t.Fatalf("migration %d: %v", round, err)
		}
		if got := g.ShardFor(key); got != to {
			t.Fatalf("migration %d: key routed to shard %d, want %d", round, got, to)
		}
	}
	close(stop)
	wg.Wait()
	if err := failed.Load(); err != nil {
		t.Fatalf("operation during migration failed: %v", err)
	}

	ops := rec.Ops()
	var writes int
	for _, op := range ops {
		if op.Kind == history.OpWrite {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("soak recorded no writes")
	}
	for _, v := range history.Verify(ops) {
		t.Errorf("atomicity across %d migrations: %v", migrations, v)
	}
	for _, v := range history.VerifyUniqueValues(ops, "") {
		t.Errorf("value check across %d migrations: %v", migrations, v)
	}

	// No write lost: a final read must return exactly the max-tag write.
	var last history.Op
	for _, op := range ops {
		if op.Kind == history.OpWrite && last.Tag.Less(op.Tag) {
			last = op
		}
	}
	v, tg, err := g.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Less(last.Tag) {
		t.Errorf("final read tag %v older than last completed write %v", tg, last.Tag)
	}
	if tg == last.Tag && string(v) != last.Value {
		t.Errorf("final read = %q, want last write %q", v, last.Value)
	}

	// Namespace recycling: each migration reaped a group; a later new key
	// must consume a recycled namespace, not a fresh one.
	free := g.FreeNamespaces()
	if free == 0 {
		t.Fatalf("no namespaces recycled after %d migrations", migrations)
	}
	alloc := g.AllocatedNamespaces()
	if _, err := g.Put(ctx, "later-key", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := g.AllocatedNamespaces(); got != alloc {
		t.Errorf("new key consumed a fresh namespace (%d -> %d) despite %d free", alloc, got, free)
	}
	if got := g.FreeNamespaces(); got != free-1 {
		t.Errorf("free namespaces = %d after reuse, want %d", got, free-1)
	}
}

// TestMigrationMovesColdKey checks the plain (no concurrent load) path:
// value and tag survive the move, the source shard forgets the key, the
// destination serves it, and a subsequent write strictly advances the tag.
func TestMigrationMovesColdKey(t *testing.T) {
	g, err := New(Config{Shards: 2, Params: testParams(t, 4, 4, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key = "cold"
	wt, err := g.Put(ctx, key, []byte("before"))
	if err != nil {
		t.Fatal(err)
	}
	from := g.ShardFor(key)
	to := 1 - from
	if err := g.MigrateKey(ctx, key, to); err != nil {
		t.Fatal(err)
	}
	if got := g.ShardFor(key); got != to {
		t.Fatalf("key on shard %d after migration, want %d", got, to)
	}
	v, rt, err := g.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "before" || rt.Less(wt) {
		t.Fatalf("after migration got (%q, %v), want (before, >= %v)", v, rt, wt)
	}
	wt2, err := g.Put(ctx, key, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Less(wt2) {
		t.Fatalf("post-migration write tag %v does not exceed snapshot tag %v", wt2, rt)
	}
	stats := g.Stats()
	if stats[from].Keys != 0 || stats[to].Keys != 1 {
		t.Errorf("key counts after migration: from=%d to=%d, want 0 and 1", stats[from].Keys, stats[to].Keys)
	}
	// Migrating onto the current home is a no-op; a double migration of
	// an uncreated key just repoints routing.
	if err := g.MigrateKey(ctx, key, to); err != nil {
		t.Fatal(err)
	}
	if err := g.MigrateKey(ctx, "never-touched", 0); err != nil {
		t.Fatal(err)
	}
	if got := g.ShardFor("never-touched"); got != 0 {
		t.Fatalf("uncreated key routed to %d after repoint, want 0", got)
	}
	if _, err := g.Put(ctx, "never-touched", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats()[0].Keys; got < 1 {
		t.Errorf("repointed key not created on shard 0 (keys=%d)", got)
	}
}

// TestMigrationResizeOnline grows 2→3 shards and shrinks back under live
// data: every key's value survives both drains, assignments follow the
// new ring exactly once drained, and namespace recycling keeps the
// allocation high-water mark from growing with the churn.
func TestMigrationResizeOnline(t *testing.T) {
	g, err := New(Config{Shards: 2, Params: testParams(t, 4, 4, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const keys = 24
	values := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("resize-%03d", i)
		values[key] = fmt.Sprintf("v-%d", i)
		if _, err := g.Put(ctx, key, []byte(values[key])); err != nil {
			t.Fatal(err)
		}
	}
	alloc := g.AllocatedNamespaces()

	if err := g.Resize(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if got := g.Shards(); got != 3 {
		t.Fatalf("Shards() = %d after grow, want 3", got)
	}
	if got := g.RingVersion(); got != 1 {
		t.Errorf("RingVersion = %d after one resize, want 1", got)
	}
	if g.Resizing() {
		t.Error("Resizing() still true after drain completed")
	}
	if got := g.PinnedKeys(); got != 0 {
		t.Errorf("%d keys still pinned after drain", got)
	}
	// Drained assignment must equal a fresh 3-shard ring's, bitwise.
	fresh, err := NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	for key := range values {
		if got, want := g.ShardFor(key), fresh.Shard(key); got != want {
			t.Errorf("key %q on shard %d after grow, fresh ring says %d", key, got, want)
		}
	}
	for key, want := range values {
		v, _, err := g.Get(ctx, key)
		if err != nil {
			t.Fatalf("key %q after grow: %v", key, err)
		}
		if string(v) != want {
			t.Errorf("key %q = %q after grow, want %q", key, v, want)
		}
	}
	// Migrations recycle as they go: the high-water mark may grow by at
	// most one namespace (the first drain migration finds the list empty).
	if got := g.AllocatedNamespaces(); got > alloc+1 {
		t.Errorf("resize grew namespace high-water mark %d -> %d; recycling broken", alloc, got)
	}

	if err := g.Resize(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.Shards(); got != 2 {
		t.Fatalf("Shards() = %d after shrink, want 2", got)
	}
	for key, want := range values {
		if sh := g.ShardFor(key); sh >= 2 {
			t.Errorf("key %q routed to removed shard %d", key, sh)
		}
		v, _, err := g.Get(ctx, key)
		if err != nil {
			t.Fatalf("key %q after shrink: %v", key, err)
		}
		if string(v) != want {
			t.Errorf("key %q = %q after shrink, want %q", key, v, want)
		}
	}
}

// TestMigrationRingChurnBound pins the consistent-hash churn bound the
// resize drain relies on: growing S→S+1 remaps at most ~1/(S+1)+ε of a
// 10k-key sample, every remapped key lands on the new shard (never a
// lateral move), and unmoved keys keep bitwise-identical assignments
// across ring versions.
func TestMigrationRingChurnBound(t *testing.T) {
	const (
		sample = 10000
		eps    = 0.05
	)
	for _, s := range []int{2, 3, 4, 8} {
		a, err := NewRing(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRing(s + 1)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i := 0; i < sample; i++ {
			key := fmt.Sprintf("churn-%05d", i)
			sa, sb := a.Shard(key), b.Shard(key)
			if sa == sb {
				continue // unmoved keys are bitwise stable by this check
			}
			moved++
			if sb != s {
				t.Errorf("S=%d: key %q moved laterally %d -> %d; churn must flow only into the new shard", s, key, sa, sb)
			}
		}
		frac, bound := float64(moved)/sample, 1/float64(s+1)+eps
		if frac > bound {
			t.Errorf("S=%d -> %d remapped %.4f of keys, want <= %.4f", s, s+1, frac, bound)
		}
	}
}

// TestMigrationConcurrentSameKey checks that migrations of one key
// serialize: racing movers either win or observe ErrMigrating, and the
// key ends on exactly one live group.
func TestMigrationConcurrentSameKey(t *testing.T) {
	g, err := New(Config{Shards: 3, Params: testParams(t, 4, 4, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key = "contended"
	if _, err := g.Put(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(to int) {
			defer wg.Done()
			if err := g.MigrateKey(ctx, key, to); err != nil && !errors.Is(err, ErrMigrating) {
				errs <- err
			}
		}(i % 3)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent migration failed: %v", err)
	}
	var live int
	for _, s := range g.Stats() {
		live += s.Keys
	}
	if live != 1 {
		t.Fatalf("%d live groups for one key after racing migrations", live)
	}
	if v, _, err := g.Get(ctx, key); err != nil || string(v) != "v" {
		t.Fatalf("read after racing migrations: %q, %v", v, err)
	}
}
