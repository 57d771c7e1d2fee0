package catalog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// reopen closes f and opens the same directory again, as a restarted
// process would.
func reopen(t *testing.T, f *File) *File {
	t.Helper()
	dir := f.dir
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	g, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func open(t *testing.T) *File {
	t.Helper()
	f, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRoundTrip(t *testing.T) {
	f := open(t)
	nodes := []wire.NodeAddr{{ID: 1, Addr: "127.0.0.1:7101"}, {ID: 2, Addr: "127.0.0.1:7102"}}
	recs := []Record{
		{Type: TypeRing, Version: 0, Shards: 2},
		{Type: TypeNSAlloc, NS: 0},
		{Type: TypeGroupServe, NS: 0, Gen: 1, Nodes: nodes, Value: []byte("v0"), Tag: tag.Zero},
		{Type: TypeObjectSet, Key: "alpha", NS: 0, Shard: 1},
		{Type: TypePlace, Key: "alpha", Shard: 1},
		{Type: TypeNSAlloc, NS: 1},
		{Type: TypeGroupServe, NS: 1, Gen: 2, Nodes: nodes, Value: []byte("snap"), Tag: tag.Tag{Z: 7, W: 1}},
		{Type: TypeObjectSet, Key: "beta", NS: 1, Shard: 0},
	}
	if err := f.Append(recs...); err != nil {
		t.Fatal(err)
	}

	check := func(st State) {
		t.Helper()
		if st.RingVersion != 0 || st.Shards != 2 {
			t.Errorf("ring = (v%d, %d shards), want (v0, 2)", st.RingVersion, st.Shards)
		}
		if got := st.Objects["alpha"]; got != (Object{NS: 0, Shard: 1}) {
			t.Errorf("alpha = %+v, want {NS:0 Shard:1}", got)
		}
		if got := st.Objects["beta"]; got != (Object{NS: 1, Shard: 0}) {
			t.Errorf("beta = %+v, want {NS:1 Shard:0}", got)
		}
		g := st.Groups[1]
		if g.Gen != 2 || string(g.Value) != "snap" || g.Tag != (tag.Tag{Z: 7, W: 1}) {
			t.Errorf("group 1 = %+v, want gen 2 seeded (snap, (7,1))", g)
		}
		if len(g.Nodes) != 2 || g.Nodes[1].Addr != "127.0.0.1:7102" {
			t.Errorf("group 1 nodes = %v", g.Nodes)
		}
		if st.NextGen != 3 {
			t.Errorf("NextGen = %d, want 3", st.NextGen)
		}
	}
	check(f.State())
	// Survives a restart (snapshot via the open-time compaction).
	check(reopen(t, f).State())
}

// TestTruncatedWALTail covers the crash-mid-append case: a torn final
// frame must be dropped and every preceding record preserved.
func TestTruncatedWALTail(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"torn header":  func(b []byte) []byte { return append(b, 0x03) },
		"torn payload": func(b []byte) []byte { return appendFrame(b, []byte(`{"t":4,"key":"lost"`), true) },
		"bad crc":      func(b []byte) []byte { return appendFrame(b, []byte(`{"t":4,"key":"lost"}`), false) },
		"junk json":    func(b []byte) []byte { return appendFrame(b, []byte(`not json at all`), true) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			f, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Append(
				Record{Type: TypeNSAlloc, NS: 0},
				Record{Type: TypeObjectSet, Key: "kept", NS: 0, Shard: 3},
			); err != nil {
				t.Fatal(err)
			}
			// Simulate the crash: stop using f (no Close, which would
			// compact) and mangle the WAL tail directly.
			walPath := filepath.Join(dir, walName)
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			f.wal.Close()
			f.lock.Close() // the crashed process's flock dies with it

			g, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after torn tail: %v", err)
			}
			defer g.Close()
			st := g.State()
			if got := st.Objects["kept"]; got != (Object{NS: 0, Shard: 3}) {
				t.Errorf("kept = %+v, want {NS:0 Shard:3}", got)
			}
			if _, ok := st.Objects["lost"]; ok {
				t.Error("torn record was replayed")
			}
			// The catalog must accept appends after recovery.
			if err := g.Append(Record{Type: TypeObjectSet, Key: "after", NS: 1, Shard: 0}); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if got := g.State().Objects["after"]; got != (Object{NS: 1, Shard: 0}) {
				t.Errorf("after = %+v", got)
			}
		})
	}
}

// appendFrame writes one WAL frame; validCRC=false corrupts the checksum.
func appendFrame(b, payload []byte, validCRC bool) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	sum := crc32.ChecksumIEEE(payload)
	if !validCRC {
		sum ^= 0xdeadbeef
	}
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	return append(append(b, hdr[:]...), payload...)
}

// TestRecycleThenRealloc is the namespace-lifecycle replay edge case: a
// namespace is retired, recycled and re-allocated to a different key with
// a fresh generation; replay must keep only the successor.
func TestRecycleThenRealloc(t *testing.T) {
	f := open(t)
	nodes := []wire.NodeAddr{{ID: 1, Addr: "127.0.0.1:7101"}}
	if err := f.Append(
		Record{Type: TypeNSAlloc, NS: 0},
		Record{Type: TypeGroupServe, NS: 0, Gen: 1, Nodes: nodes},
		Record{Type: TypeObjectSet, Key: "old", NS: 0, Shard: 0},
		// Migration reap of "old": successor binding replaces it first.
		Record{Type: TypeNSAlloc, NS: 1},
		Record{Type: TypeGroupServe, NS: 1, Gen: 2, Nodes: nodes, Value: []byte("moved")},
		Record{Type: TypeObjectSet, Key: "old", NS: 1, Shard: 0},
		Record{Type: TypeGroupRetire, NS: 0},
		Record{Type: TypeNSRecycle, NS: 0},
		// Re-allocation of namespace 0 to a brand-new key.
		Record{Type: TypeNSAlloc, NS: 0},
		Record{Type: TypeGroupServe, NS: 0, Gen: 3, Nodes: nodes, Value: []byte("fresh")},
		Record{Type: TypeObjectSet, Key: "new", NS: 0, Shard: 0},
	); err != nil {
		t.Fatal(err)
	}
	st := reopen(t, f).State()
	if got := st.Objects["old"]; got != (Object{NS: 1, Shard: 0}) {
		t.Errorf("old = %+v, want {NS:1}", got)
	}
	if got := st.Objects["new"]; got != (Object{NS: 0, Shard: 0}) {
		t.Errorf("new = %+v, want {NS:0}", got)
	}
	if g := st.Groups[0]; g.Gen != 3 || string(g.Value) != "fresh" {
		t.Errorf("group 0 = gen %d value %q, want the gen-3 successor", g.Gen, g.Value)
	}
	if st.NextGen != 4 {
		t.Errorf("NextGen = %d, want 4 (no persisted gen may be re-issued)", st.NextGen)
	}
}

// TestImpliedAllocation: the bindings alone carry a namespace's use. With
// the allocation records lost (or never written), the object and group
// records still name every namespace in use, which is what the gateway
// derives its allocator from; legacy allocation records change nothing.
func TestImpliedAllocation(t *testing.T) {
	f := open(t)
	nodes := []wire.NodeAddr{{ID: 1, Addr: "127.0.0.1:7101"}}
	if err := f.Append(
		// No NSAlloc for 5 or 7: those records were lost.
		Record{Type: TypeObjectSet, Key: "a", NS: 5, Shard: 0},
		Record{Type: TypeGroupServe, NS: 7, Gen: 1, Nodes: nodes},
		// And a recycle of 3 followed by a lost NSAlloc + durable bind.
		Record{Type: TypeNSAlloc, NS: 3},
		Record{Type: TypeNSRecycle, NS: 3},
		Record{Type: TypeObjectSet, Key: "b", NS: 3, Shard: 0},
	); err != nil {
		t.Fatal(err)
	}
	st := reopen(t, f).State()
	if st.Objects["a"].NS != 5 || st.Objects["b"].NS != 3 {
		t.Errorf("objects = %v, want a on 5 and b on 3", st.Objects)
	}
	if _, ok := st.Groups[7]; !ok {
		t.Errorf("groups = %v, want group 7", st.Groups)
	}

	// A lone legacy recycle record leaves the state as empty as it was.
	g := open(t)
	if err := g.Append(Record{Type: TypeNSRecycle, NS: 9}); err != nil {
		t.Fatal(err)
	}
	if st, empty := g.State(), newState(); !reflect.DeepEqual(st, empty) {
		t.Errorf("state after a legacy recycle = %+v, want empty", st)
	}
}

// TestObjectDelAndUnplace checks the forgetting records.
func TestObjectDelAndUnplace(t *testing.T) {
	f := open(t)
	if err := f.Append(
		Record{Type: TypeObjectSet, Key: "k", NS: 5, Shard: 2},
		Record{Type: TypePlace, Key: "k", Shard: 2},
		Record{Type: TypeObjectDel, Key: "k"},
		Record{Type: TypeUnplace, Key: "k"},
	); err != nil {
		t.Fatal(err)
	}
	st := reopen(t, f).State()
	if len(st.Objects) != 0 {
		t.Errorf("objects = %v, want empty", st.Objects)
	}
}

// TestCompactionBoundsWAL drives enough appends to cross the auto-compact
// threshold and checks the WAL was folded into the snapshot.
func TestCompactionBoundsWAL(t *testing.T) {
	f := open(t)
	for i := 0; i < compactThreshold+10; i++ {
		if err := f.Append(Record{Type: TypeObjectSet, Key: "k", Shard: i % 7}); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	n := f.walRecords
	f.mu.Unlock()
	if n >= compactThreshold {
		t.Errorf("walRecords = %d after threshold crossing, want < %d", n, compactThreshold)
	}
	if got := f.State().Objects["k"].Shard; got != (compactThreshold+9)%7 {
		t.Errorf("objects[k].Shard = %d, want %d", got, (compactThreshold+9)%7)
	}
	info, err := os.Stat(filepath.Join(f.dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 1<<16 {
		t.Errorf("wal is %d bytes after compaction, want small", info.Size())
	}
}

// TestFailedSyncAppliesNothing pins Append's write-ahead order: state
// changes only after the WAL fsync, so a reader never observes a record a
// crash can still lose. The WAL is swapped for a pipe, which takes the
// write but fails Sync and the rollback Truncate with EINVAL: the state
// must stay as it was, the file must refuse later appends (its WAL tail is
// unknown), and a reopen must replay only the durable records.
func TestFailedSyncAppliesNothing(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(Record{Type: TypeNSAlloc, NS: 0}, Record{Type: TypeObjectSet, Key: "durable", NS: 0}); err != nil {
		t.Fatal(err)
	}
	before := f.State()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wal := f.wal
	f.wal = w
	err = f.Append(Record{Type: TypeNSAlloc, NS: 1}, Record{Type: TypeObjectSet, Key: "lost", NS: 1})
	if !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("Append on a pipe = %v, want the fsync's EINVAL", err)
	}
	if got := f.State(); !reflect.DeepEqual(got, before) {
		t.Errorf("state after a failed fsync = %+v, want unchanged %+v", got, before)
	}
	if err := f.Append(Record{Type: TypePlace, Key: "durable", Shard: 1}); err == nil {
		t.Error("Append after an unrolled failure succeeded, want it refused")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	g, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	st := g.State()
	if _, ok := st.Objects["durable"]; !ok {
		t.Error("reopen lost the durable record")
	}
	if _, ok := st.Objects["lost"]; ok {
		t.Errorf("reopen replayed the failed append: objects %v", st.Objects)
	}
}

// TestOpenLocksDirectory: two live handles on one catalog would corrupt
// it (a restart overlap truncating the WAL under the old process), so
// the second Open must fail fast until the first closes.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	g.Close()
}

// TestMissingSnapshot opens a directory whose snapshot never existed (only
// a WAL) — the first-crash-before-first-compaction case.
func TestMissingSnapshot(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(Record{Type: TypeObjectSet, Key: "k", NS: 4}); err != nil {
		t.Fatal(err)
	}
	f.wal.Close() // abandon without Close: snapshot holds the compacted open-state only
	f.lock.Close()
	os.Remove(filepath.Join(dir, snapshotName))

	g, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if st := g.State(); st.Objects["k"].NS != 4 {
		t.Errorf("objects = %v, want k on 4 (replayed from WAL alone)", st.Objects)
	}
}

// TestQuarantineAndGenFloor: the failover-adoption records. A quarantine
// survives a later (legacy) recycle record, and a gen floor must pull
// NextGen up without ever lowering it.
func TestQuarantineAndGenFloor(t *testing.T) {
	f := open(t)
	nodes := []wire.NodeAddr{{ID: 1, Addr: "127.0.0.1:7101"}}
	if err := f.Append(
		Record{Type: TypeNSAlloc, NS: 0},
		Record{Type: TypeGroupServe, NS: 0, Gen: 3, Nodes: nodes},
		Record{Type: TypeObjectSet, Key: "stolen", NS: 0, Shard: 0},
		// The adopting peer's transfer: forget the binding and group,
		// then fence the namespace for good.
		Record{Type: TypeObjectDel, Key: "stolen"},
		Record{Type: TypeGroupRetire, NS: 0},
		Record{Type: TypeNSQuarantine, NS: 0},
		// A racing recycle of the quarantined id must be ignored.
		Record{Type: TypeNSRecycle, NS: 0},
		// The adopter's own catalog would carry the floor; here it just
		// proves replay semantics (NextGen was 4 from the gen-3 serve).
		Record{Type: TypeGenFloor, Gen: 9},
		Record{Type: TypeGenFloor, Gen: 2}, // lower floor: no effect
	); err != nil {
		t.Fatal(err)
	}
	st := reopen(t, f).State()
	if !st.Quarantined(0) {
		t.Error("namespace 0 not quarantined after replay")
	}
	if st.NextGen != 9 {
		t.Errorf("NextGen = %d, want 9 (the floor)", st.NextGen)
	}
	if _, live := st.Groups[0]; live {
		t.Error("group 0 still live after transfer")
	}
}

// TestQuarantineSnapshotRoundTrip: quarantine must survive compaction
// (the snapshot), and normalize must deduplicate it even for hand-edited
// snapshots.
func TestQuarantineSnapshotRoundTrip(t *testing.T) {
	f := open(t)
	if err := f.Append(
		Record{Type: TypeNSAlloc, NS: 0},
		Record{Type: TypeNSAlloc, NS: 1},
		Record{Type: TypeNSQuarantine, NS: 1},
	); err != nil {
		t.Fatal(err)
	}
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	st := reopen(t, f).State()
	if !st.Quarantined(1) {
		t.Error("quarantine lost across compaction")
	}

	s := State{Quarantine: []int32{3, 3}}
	s.normalize()
	if len(s.Quarantine) != 1 || s.Quarantine[0] != 3 {
		t.Errorf("normalized Quarantine = %v, want [3]", s.Quarantine)
	}
}

// TestTypeValuesGolden pins the numeric value and name of every record
// type: the values are the on-disk format, so a renumbered or reordered
// constant would make every existing catalog replay as different records.
// That includes the types only the former multi-gateway fleet wrote
// (ns-quarantine, gen-floor, forward-done); its lease records lived in a
// separate lease store and never had a catalog type, so 13 stays unused.
func TestTypeValuesGolden(t *testing.T) {
	for _, c := range []struct {
		typ   Type
		value uint8
		name  string
	}{
		{TypeNSAlloc, 1, "ns-alloc"},
		{TypeNSRecycle, 2, "ns-recycle"},
		{TypeObjectSet, 3, "object-set"},
		{TypeObjectDel, 4, "object-del"},
		{TypePlace, 5, "place"},
		{TypeUnplace, 6, "unplace"},
		{TypeRing, 7, "ring"},
		{TypeGroupServe, 8, "group-serve"},
		{TypeGroupRetire, 9, "group-retire"},
		{TypeNSQuarantine, 10, "ns-quarantine"},
		{TypeGenFloor, 11, "gen-floor"},
		{TypeForwardDone, 12, "forward-done"},
		{Type(13), 13, "type(13)"},
	} {
		if uint8(c.typ) != c.value || c.typ.String() != c.name {
			t.Errorf("%v = %d, want %s = %d", c.typ, uint8(c.typ), c.name, c.value)
		}
	}
}

// TestLegacyRecordsReplayAsNoOps: namespace-allocation and placement
// records from older catalogs, in the WAL or as snapshot fields, open
// cleanly and change nothing.
func TestLegacyRecordsReplayAsNoOps(t *testing.T) {
	dir := t.TempDir()
	snap := `{"ring_version": 2, "shards": 3, "next_ns": 9, "free_ns": [4, 6],
		"placement": {"k": 2}, "objects": {"k": {"ns": 1, "shard": 2}}, "next_gen": 5}`
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	var wal []byte
	for _, payload := range []string{
		`{"t":1,"ns":9}`, `{"t":2,"ns":1}`, `{"t":5,"key":"k","shard":0}`, `{"t":6,"key":"k"}`,
	} {
		wal = appendFrame(wal, []byte(payload), true)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := newState()
	want.RingVersion, want.Shards, want.NextGen = 2, 3, 5
	want.Objects["k"] = Object{NS: 1, Shard: 2}
	if got := f.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("state = %+v, want %+v", got, want)
	}
}
