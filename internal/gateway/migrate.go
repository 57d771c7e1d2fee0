package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/lds-storage/lds/internal/catalog"
)

// Migration errors.
var (
	// ErrMigrating is returned when a key already has a migration in
	// flight.
	ErrMigrating = errors.New("gateway: key migration already in progress")
	// ErrResizing is returned by MigrateKey while a Resize drain is in
	// progress (the drain owns key placement until it completes).
	ErrResizing = errors.New("gateway: resize in progress")
)

// MigrateKey moves a key's LDS group to another shard with a live,
// atomicity-preserving migration:
//
//  1. Quiesce — every pooled client of the key is checked out, so
//     in-flight operations complete and new ones park on the empty pools.
//  2. Snapshot — a read on the quiesced group yields (value, tag) with
//     tag at least that of every completed write (quorum intersection).
//  3. Seed — a fresh group boots at the destination from the snapshot
//     (sim.Config.InitialTag): its L2 layer stores the value at the
//     snapshot tag and its L1 layer has committed it, so the first write
//     there carries a strictly larger tag and reads return the snapshot
//     value until then. To clients the handoff is indistinguishable from
//     the old group having served the operations itself.
//  4. Swap — the destination shard adopts the group, the key's placement
//     repoints, the source shard forgets it.
//  5. Reap — the old group is retired (parked operations wake, observe
//     the retirement and retry against the new home), closed, and its
//     namespace returns to the free list for a later group to reuse.
//
// Migrating a key that has no group yet just repoints its placement; the
// group is created at the destination on first use. That pin lives in
// memory only: with no binding to derive it from, a restarted gateway
// routes the key by the ring again (it holds no data to lose). Migrating a
// key onto the shard it already lives on is a no-op.
//
// Concurrent migrations of one key serialize (the loser gets
// ErrMigrating); concurrent migrations of distinct keys proceed
// independently. While a Resize drain is running, MigrateKey returns
// ErrResizing.
func (g *Gateway) MigrateKey(ctx context.Context, key string, to int) error {
	if err := g.beginOp(); err != nil {
		return err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	return g.opErr(g.migrateKey(ctx, key, to, false))
}

// migrateKey is the migration engine shared by MigrateKey and the Resize
// drain (drain=true); callers hold no locks.
func (g *Gateway) migrateKey(ctx context.Context, key string, to int, drain bool) error {
	// Claim the key and resolve its current home. The resize check lives
	// inside the claim critical section so it is atomic with it: an
	// explicit migration can never start once a resize owns placement
	// (and could otherwise pin a key onto a shard a shrink is about to
	// remove).
	g.route.mu.Lock()
	if !drain && g.route.resizing {
		g.route.mu.Unlock()
		return ErrResizing
	}
	if to < 0 || to >= len(g.route.shards) {
		n := len(g.route.shards)
		g.route.mu.Unlock()
		return fmt.Errorf("gateway: migrate %q: shard %d out of range [0, %d)", key, to, n)
	}
	if g.route.migrating[key] {
		g.route.mu.Unlock()
		return ErrMigrating
	}
	from := g.routeLocked(key)
	if from == to {
		g.route.mu.Unlock()
		return nil
	}
	fromSh, toSh := g.route.shards[from], g.route.shards[to]
	fromSh.mu.Lock()
	obj := fromSh.objects[key]
	fromSh.mu.Unlock()
	if obj == nil {
		// No group yet: repoint the key; its group will be created at the
		// destination on first use.
		g.placeLocked(key, to)
		g.route.mu.Unlock()
		return nil
	}
	g.route.migrating[key] = true
	g.route.mu.Unlock()
	defer func() {
		g.route.mu.Lock()
		delete(g.route.migrating, key)
		g.route.mu.Unlock()
	}()

	// Quiesce the key's client pools.
	writers, readers, err := obj.quiesce(ctx)
	if err != nil {
		return err
	}

	// Snapshot (value, tag) from the quiesced group.
	value, snapTag, err := readers[0].Read(ctx)
	if err != nil {
		obj.restore(writers, readers)
		return fmt.Errorf("gateway: migrate %q: snapshot: %w", key, err)
	}

	// Build the seeded successor group at the destination, with the
	// destination shard's backend — a migration may hand a key between
	// backends (sim -> tcp and back), the snapshot seed works for both.
	grp, ns, err := g.buildGroup(ctx, toSh.be, &groupSeed{value: value, tag: snapTag})
	if err != nil {
		obj.restore(writers, readers)
		return fmt.Errorf("gateway: migrate %q: %w", key, err)
	}
	newObj, err := newObject(grp, ns, g.cfg.PoolSize)
	if err != nil {
		grp.Close()
		g.recycleNamespace(ns)
		obj.restore(writers, readers)
		return fmt.Errorf("gateway: migrate %q: %w", key, err)
	}
	newObj.ops.Store(obj.ops.Load()) // hotness follows the key

	// Swap: destination adopts the group, placement repoints, source
	// forgets. One route critical section keeps lookups consistent. A
	// migration claimed just before a resize began revalidates its target
	// here — the shard set may have shrunk since the claim, and installing
	// into a truncated shard would orphan the key.
	g.route.mu.Lock()
	if to >= len(g.route.shards) || g.route.shards[to] != toSh {
		g.route.mu.Unlock()
		grp.Close()
		g.recycleNamespace(ns)
		obj.restore(writers, readers)
		return fmt.Errorf("gateway: migrate %q: destination shard %d was removed by a concurrent resize", key, to)
	}
	toSh.mu.Lock()
	for _, i := range toSh.crashedL1 {
		newObj.grp.CrashL1(i)
	}
	for _, i := range toSh.crashedL2 {
		newObj.grp.CrashL2(i)
	}
	toSh.objects[key] = newObj
	toSh.mu.Unlock()
	fromSh.mu.Lock()
	delete(fromSh.objects, key)
	fromSh.mu.Unlock()
	// The ObjectSet record is the migration's durable commit point: once
	// it lands, a restart resumes the key on the successor group, pinned
	// there if the ring disagrees (restore derives pins from bindings).
	// Until it lands, a restart resumes the key on the old group, which is
	// still intact.
	g.placeLocked(key, to)
	g.logRecord(catalog.Record{Type: catalog.TypeObjectSet, Key: key, NS: newObj.ns, Shard: to})
	g.route.mu.Unlock()

	// Reap: retire before releasing the quiesced clients, so a parked
	// operation that now wins a checkout observes the retirement, returns
	// the client and retries against the new home.
	obj.retired.Store(true)
	obj.restore(writers, readers)
	obj.grp.Close()
	g.recycleNamespace(obj.ns)
	return nil
}

// placeLocked records that key now lives on shard sh, dropping the pin
// when the ring already says so; callers hold route.mu. Pins are memory
// only: a restarted gateway derives them from the ObjectSet bindings.
func (g *Gateway) placeLocked(key string, sh int) {
	if g.route.ring.Shard(key) == sh {
		delete(g.route.placement, key)
	} else {
		g.route.placement[key] = sh
	}
}

// Resize changes the shard count to n online. The ring swap is immediate
// and versioned: the old ring's answer for every live key is first
// materialized as a placement pin, so lookups stay correct the instant the
// new ring takes over, and only the ~1/(S+1) (grow) fraction of keys the
// ring change actually remapped then drain to their new homes one live
// migration at a time. Shrinking drains the doomed tail shards' keys and
// then removes the shards; surviving shard indices are stable.
//
// On error (context expiry, a failed migration) the ring swap is kept —
// un-drained keys simply remain pinned to their old shards and keep
// serving — and a later Resize to the same shard count resumes the drain.
func (g *Gateway) Resize(ctx context.Context, n int) error {
	if err := g.beginOp(); err != nil {
		return err
	}
	defer g.endOp()
	ctx, cancel := g.opContext(ctx)
	defer cancel()
	return g.opErr(g.resize(ctx, n))
}

func (g *Gateway) resize(ctx context.Context, n int) error {
	newRing, err := NewRing(n)
	if err != nil {
		return err
	}

	g.route.mu.Lock()
	if g.route.resizing {
		g.route.mu.Unlock()
		return ErrResizing
	}
	g.route.resizing = true // covers the whole resize, pure drains included
	defer func() {
		g.route.mu.Lock()
		g.route.resizing = false
		g.route.mu.Unlock()
	}()
	old := len(g.route.shards)
	if n != old {
		// Materialize the outgoing ring's answer for every live key: the
		// old ring keeps answering for them (as pins) while they drain.
		// Only the ring swap is logged: after a restart, every key whose
		// binding the new ring disagrees with is pinned again by restore.
		for _, sh := range g.route.shards {
			sh.mu.Lock()
			for key := range sh.objects {
				if _, ok := g.route.placement[key]; !ok {
					g.route.placement[key] = sh.index
				}
			}
			sh.mu.Unlock()
		}
		for len(g.route.shards) < n {
			g.route.shards = append(g.route.shards, newShard(g, len(g.route.shards), g.backendFor(len(g.route.shards))))
		}
		g.route.ring = newRing
		g.route.version++
		// The record carries the live shard count — for a shrink that is
		// still the old count until the drain empties the doomed tail, so
		// a restart mid-drain rebuilds every shard the pinned keys still
		// reference (and a later Resize resumes the drain).
		g.logRecord(catalog.Record{Type: catalog.TypeRing, Version: g.route.version, Shards: len(g.route.shards)})
	}
	// The drain list: every pinned key not already at its ring home.
	// (With n == old this turns Resize into a pure drain of leftover pins
	// from an interrupted earlier resize.)
	drain := make([]string, 0, len(g.route.placement))
	for key, sh := range g.route.placement {
		if g.route.ring.Shard(key) != sh {
			drain = append(drain, key)
		} else {
			delete(g.route.placement, key)
		}
	}
	g.route.mu.Unlock()
	sort.Strings(drain) // deterministic drain order

	var firstErr error
	for _, key := range drain {
		if err := ctx.Err(); err != nil {
			firstErr = err
			break
		}
		g.route.mu.RLock()
		home := g.route.ring.Shard(key)
		g.route.mu.RUnlock()
		if err := g.migrateKey(ctx, key, home, true); err != nil {
			firstErr = fmt.Errorf("gateway: resize: drain %q: %w", key, err)
			break
		}
	}

	g.route.mu.Lock()
	if firstErr == nil && n < len(g.route.shards) {
		// The drain emptied the doomed tail shards (MigrateKey is locked
		// out during a resize, so nothing repopulated them); drop them.
		for _, sh := range g.route.shards[n:] {
			sh.mu.Lock()
			left := len(sh.objects)
			sh.mu.Unlock()
			if left != 0 {
				g.route.mu.Unlock()
				return fmt.Errorf("gateway: resize: shard %d still holds %d keys after drain", sh.index, left)
			}
		}
		g.route.shards = g.route.shards[:n:n]
		g.logRecord(catalog.Record{Type: catalog.TypeRing, Version: g.route.version, Shards: n})
	}
	g.route.mu.Unlock()
	return firstErr
}
