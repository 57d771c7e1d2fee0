// Package catalog persists a gateway's routing plane: the append-only,
// crash-safe record of the bindings a restarted gateway needs to find its
// keyspace again — each key's group binding (namespace and owning shard),
// the incarnation (generation) plus boot seed of every remote shard group,
// the ring epoch, fenced namespaces (quarantine) and the generation
// floor. Replaying the catalog after a gateway restart reconstructs exactly
// the state needed to re-adopt the node-held groups a live node fleet is
// still serving, instead of discarding them (see internal/gateway and
// docs/ARCHITECTURE.md, "Durable routing catalog").
//
// What follows from those bindings is not recorded: the gateway derives
// its namespace allocator and its placement pins from them at restore.
// Catalogs written before that change also hold namespace-allocation
// (TypeNSAlloc, TypeNSRecycle) and placement (TypePlace, TypeUnplace)
// records and snapshot fields for them; replay ignores both, so such a
// catalog still opens and restores. So does a catalog written by a member
// of the former multi-gateway fleet: its executed-forward records
// (TypeForwardDone) and snapshot field replay as no-ops, while its
// quarantine and generation-floor records keep their effect.
//
// # On-disk layout
//
// A catalog is a directory holding two files:
//
//	snapshot   JSON-encoded State, replaced atomically at compaction
//	wal        append-only log of Records, CRC-framed, fsync'd per Append
//
// Each WAL frame is [4-byte little-endian length][4-byte CRC32 of the
// payload][payload], where the payload is one JSON-encoded Record. Replay
// applies the snapshot and then every intact frame in order; the first
// torn or corrupt frame ends the log — everything before it is the
// recovered state, matching the crash model (an append interrupted by a
// crash loses at most that one record, which by the write-ahead discipline
// had not taken effect yet).
//
// # Durability discipline
//
// Append encodes, writes and fsyncs before returning, so a record that
// Append acknowledged survives any crash. Callers follow a write-ahead
// rule for the one record class where stale disk state would be unsafe:
// a group's incarnation (TypeGroupServe) is persisted before any node can
// learn it, so a restarted gateway can never re-issue a generation some
// node already holds for different state. All other records describe
// in-memory transitions that replay reconciles (see the gateway's restore
// path).
//
// Compact writes the current materialized state as a fresh snapshot
// (write-to-temp, fsync, rename, fsync directory) and truncates the WAL;
// it runs automatically at Open and whenever the WAL grows past a
// threshold, so the catalog's size tracks the live routing state, not the
// mutation history.
package catalog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// Type discriminates catalog records.
type Type uint8

// Record types. The zero value is invalid. The numeric values are the
// on-disk format: a type is never renumbered, and one no longer written
// keeps its value so older catalogs replay.
const (
	// TypeNSAlloc is a legacy namespace-allocation record; it is no longer
	// written and replay ignores it.
	TypeNSAlloc Type = iota + 1
	// TypeNSRecycle is a legacy free-list record; it is no longer written
	// and replay ignores it.
	TypeNSRecycle
	// TypeObjectSet binds a key to its group's namespace and owning shard;
	// it records both first creation and the commit point of a migration
	// swap (the new binding replaces the old).
	TypeObjectSet
	// TypeObjectDel forgets a key's group binding.
	TypeObjectDel
	// TypePlace is a legacy placement-pin record; it is no longer written
	// and replay ignores it.
	TypePlace
	// TypeUnplace is a legacy pin-removal record; it is no longer written
	// and replay ignores it.
	TypeUnplace
	// TypeRing records the routing epoch and shard count after a ring
	// change (resize swap or shrink truncation).
	TypeRing
	// TypeGroupServe records a remote group's incarnation, node set and
	// boot seed — everything needed to re-adopt it after a restart. By the
	// write-ahead rule it is persisted before any node sees the Gen.
	TypeGroupServe
	// TypeGroupRetire forgets a remote group.
	TypeGroupRetire
	// TypeNSQuarantine permanently fences a namespace out of this catalog's
	// allocator: the gateway's restore never derives it as free. It is no
	// longer written; the former multi-gateway fleet wrote it into a dead
	// member's catalog when a peer adopted that namespace's group, and node
	// hosts may still hold the group, so replay keeps the fence.
	TypeNSQuarantine
	// TypeGenFloor raises NextGen to at least Gen. It is no longer written;
	// a former fleet member logged it before re-serving a dead peer's
	// groups under generations from the peer's counter, and node hosts may
	// still hold those, so replay keeps the floor: no generation a node
	// might hold is ever re-issued.
	TypeGenFloor
	// TypeForwardDone is a legacy record of a put forwarded between fleet
	// members; it is no longer written and replay ignores it.
	TypeForwardDone
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TypeNSAlloc:
		return "ns-alloc"
	case TypeNSRecycle:
		return "ns-recycle"
	case TypeObjectSet:
		return "object-set"
	case TypeObjectDel:
		return "object-del"
	case TypePlace:
		return "place"
	case TypeUnplace:
		return "unplace"
	case TypeRing:
		return "ring"
	case TypeGroupServe:
		return "group-serve"
	case TypeGroupRetire:
		return "group-retire"
	case TypeNSQuarantine:
		return "ns-quarantine"
	case TypeGenFloor:
		return "gen-floor"
	case TypeForwardDone:
		return "forward-done"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one routing mutation. Which fields are meaningful depends on
// Type; unused fields stay zero and are omitted from the encoding.
type Record struct {
	Type Type `json:"t"`
	// Key names the object for TypeObjectSet/Del.
	Key string `json:"key,omitempty"`
	// NS is the transport namespace for object, group and quarantine
	// records.
	NS int32 `json:"ns,omitempty"`
	// Shard is the owning shard for TypeObjectSet.
	Shard int `json:"shard,omitempty"`
	// Version and Shards carry the routing epoch for TypeRing.
	Version int `json:"version,omitempty"`
	Shards  int `json:"shards,omitempty"`
	// Gen, Nodes, Value, Tag and the geometry fields describe a remote
	// group for TypeGroupServe: its incarnation, node set, boot seed and
	// cluster parameters (so a restarted gateway can refuse to pair
	// different-geometry clients with the state-keeping servers).
	Gen   uint64          `json:"gen,omitempty"`
	Nodes []wire.NodeAddr `json:"nodes,omitempty"`
	Value []byte          `json:"value,omitempty"`
	Tag   tag.Tag         `json:"tag"`
	N1    int32           `json:"n1,omitempty"`
	N2    int32           `json:"n2,omitempty"`
	F1    int32           `json:"f1,omitempty"`
	F2    int32           `json:"f2,omitempty"`
}

// Object is a key's group binding in the materialized state.
type Object struct {
	NS    int32 `json:"ns"`
	Shard int   `json:"shard"`
}

// Group is a remote group's re-adoption record in the materialized state:
// the incarnation every node of the group last acknowledged, the node
// set, the boot seed a restarted (empty) node rebuilds from, and the
// cluster geometry the group was provisioned with.
type Group struct {
	Gen   uint64          `json:"gen"`
	Nodes []wire.NodeAddr `json:"nodes"`
	Value []byte          `json:"value,omitempty"`
	Tag   tag.Tag         `json:"tag"`
	N1    int32           `json:"n1,omitempty"`
	N2    int32           `json:"n2,omitempty"`
	F1    int32           `json:"f1,omitempty"`
	F2    int32           `json:"f2,omitempty"`
}

// State is the catalog's materialized view: what replaying every record
// yields, and what a restarted gateway reloads.
type State struct {
	// RingVersion and Shards are the routing epoch (zero until the first
	// TypeRing record).
	RingVersion int `json:"ring_version"`
	Shards      int `json:"shards"`
	// Objects maps each live key to its group binding.
	Objects map[string]Object `json:"objects,omitempty"`
	// Groups maps each live remote group's namespace to its re-adoption
	// record.
	Groups map[int32]Group `json:"groups,omitempty"`
	// NextGen is one past the largest generation ever persisted; a
	// restarted gateway resumes its incarnation allocator here so no
	// generation a node might hold is ever re-issued.
	NextGen uint64 `json:"next_gen"`
	// Quarantine lists namespaces fenced out of the allocator for good
	// (TypeNSQuarantine): they are never free.
	Quarantine []int32 `json:"quarantine,omitempty"`
}

// newState returns an empty state with allocated maps.
func newState() State {
	return State{
		Objects: make(map[string]Object),
		Groups:  make(map[int32]Group),
	}
}

// clone deep-copies the state.
func (s *State) clone() State {
	out := *s
	out.Quarantine = append([]int32(nil), s.Quarantine...)
	out.Objects = make(map[string]Object, len(s.Objects))
	for k, v := range s.Objects {
		out.Objects[k] = v
	}
	out.Groups = make(map[int32]Group, len(s.Groups))
	for k, v := range s.Groups {
		g := v
		g.Nodes = append([]wire.NodeAddr(nil), v.Nodes...)
		g.Value = append([]byte(nil), v.Value...)
		out.Groups[k] = g
	}
	return out
}

// normalize re-establishes invariants after loading a snapshot produced by
// an older writer or edited by hand: nil maps become empty, and the
// quarantine list drops negative and duplicate entries.
func (s *State) normalize() {
	if s.Objects == nil {
		s.Objects = make(map[string]Object)
	}
	if s.Groups == nil {
		s.Groups = make(map[int32]Group)
	}
	seen := make(map[int32]bool, len(s.Quarantine))
	q := s.Quarantine[:0]
	for _, ns := range s.Quarantine {
		if ns >= 0 && !seen[ns] {
			seen[ns] = true
			q = append(q, ns)
		}
	}
	s.Quarantine = q
}

// Quarantined reports whether ns was fenced out of this catalog's
// allocator by a TypeNSQuarantine record.
func (s *State) Quarantined(ns int32) bool {
	for _, q := range s.Quarantine {
		if q == ns {
			return true
		}
	}
	return false
}

// apply folds one record into the state. Records are self-contained and
// idempotent enough that replaying a prefix of the log always yields a
// state the gateway's restore path can reconcile. The legacy types
// (TypeNSAlloc, TypeNSRecycle, TypePlace, TypeUnplace, TypeForwardDone)
// fall through as no-ops.
func (s *State) apply(r Record) {
	switch r.Type {
	case TypeObjectSet:
		s.Objects[r.Key] = Object{NS: r.NS, Shard: r.Shard}
	case TypeObjectDel:
		delete(s.Objects, r.Key)
	case TypeRing:
		s.RingVersion = r.Version
		s.Shards = r.Shards
	case TypeGroupServe:
		s.Groups[r.NS] = Group{Gen: r.Gen, Nodes: r.Nodes, Value: r.Value, Tag: r.Tag,
			N1: r.N1, N2: r.N2, F1: r.F1, F2: r.F2}
		if r.Gen >= s.NextGen {
			s.NextGen = r.Gen + 1
		}
	case TypeGroupRetire:
		delete(s.Groups, r.NS)
	case TypeNSQuarantine:
		if !s.Quarantined(r.NS) {
			s.Quarantine = append(s.Quarantine, r.NS)
		}
	case TypeGenFloor:
		if r.Gen > s.NextGen {
			s.NextGen = r.Gen
		}
	}
}

// compactThreshold is how many WAL records accumulate before Append
// compacts automatically.
const compactThreshold = 4096

// File names within the catalog directory.
const (
	snapshotName = "snapshot"
	walName      = "wal"
)

// File is an open catalog directory. All methods are safe for concurrent
// use; Append serializes internally, so the on-disk record order matches
// the order appends returned.
type File struct {
	mu    sync.Mutex
	dir   string
	wal   *os.File
	lock  *os.File // exclusive advisory lock on the directory
	state State
	// walRecords counts records since the last compaction; walSize is the
	// byte offset of the last durable frame boundary, the rollback point
	// when an append fails partway.
	walRecords int
	walSize    int64
	// failErr poisons the file after an append failure that could not be
	// rolled back: the WAL tail is indeterminate, and writing past it
	// would strand durable frames behind garbage at replay.
	failErr error
	closed  bool
}

// Open loads (or creates) the catalog directory at dir: it reads the
// snapshot, replays every intact WAL record — tolerating a torn tail from
// a crash mid-append — and compacts, so a freshly opened catalog always
// has an empty WAL and a snapshot equal to its state. An exclusive
// advisory lock on the directory guards against two live processes
// appending to one catalog (a restart overlap would otherwise corrupt
// it); the second Open fails fast with ErrLocked.
func Open(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	release := lock // released on every error path below
	defer func() {
		if release != nil {
			release.Close()
		}
	}()
	state := newState()
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	switch {
	case err == nil:
		if err := json.Unmarshal(snap, &state); err != nil {
			return nil, fmt.Errorf("catalog: snapshot: %w", err)
		}
		state.normalize()
	case os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("catalog: %w", err)
	}

	walPath := filepath.Join(dir, walName)
	walData, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	records := decodeWAL(walData)
	for _, r := range records {
		state.apply(r)
	}

	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	f := &File{dir: dir, wal: wal, lock: lock, state: state, walRecords: len(records)}
	// Compacting at open folds the replayed tail (and drops any torn
	// frame) into the snapshot, so the WAL restarts empty.
	if err := f.compactLocked(); err != nil {
		wal.Close()
		return nil, err
	}
	release = nil // the File owns the lock now
	return f, nil
}

// ErrLocked is returned by Open when another live process holds the
// catalog directory.
var ErrLocked = errors.New("catalog: directory is locked by another process")

// acquireLock takes a non-blocking exclusive flock on dir/lock.
func acquireLock(dir string) (*os.File, error) {
	lf, err := os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		if err == syscall.EWOULDBLOCK {
			return nil, fmt.Errorf("%w (%s)", ErrLocked, dir)
		}
		return nil, fmt.Errorf("catalog: lock: %w", err)
	}
	return lf, nil
}

// decodeWAL parses frames until the data ends or a torn/corrupt frame is
// found. Replay cannot fail: the first bad frame silently ends the log
// (the crash model's torn tail), which is why there is no error result.
func decodeWAL(data []byte) (records []Record) {
	off := 0
	for len(data)-off >= 8 {
		size := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if size > uint32(len(data)-off-8) {
			return records // torn payload
		}
		payload := data[off+8 : off+8+int(size)]
		var r Record
		if crc32.ChecksumIEEE(payload) != sum || json.Unmarshal(payload, &r) != nil {
			return records // corrupt or undecodable frame: torn tail
		}
		records = append(records, r)
		off += 8 + int(size)
	}
	return records // torn or absent header: end of log
}

// encodeFrame appends one CRC frame ([len][crc32][payload]) to buf.
func encodeFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// State returns a deep copy of the materialized state.
func (f *File) State() State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state.clone()
}

// Append durably logs the records, in order, with a single fsync: when it
// returns nil every record has hit stable storage. Batching related
// records into one call both amortizes the fsync and narrows the crash
// window between them to a torn tail (a crash can lose a suffix of the
// batch, never an interior record).
func (f *File) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("catalog: closed")
	}
	if f.failErr != nil {
		return fmt.Errorf("catalog: wal failed earlier and could not be rolled back: %w", f.failErr)
	}
	var buf []byte
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("catalog: encode %v record: %w", r.Type, err)
		}
		buf = encodeFrame(buf, payload)
	}
	if _, err := f.wal.Write(buf); err != nil {
		f.rollbackLocked(err)
		return fmt.Errorf("catalog: wal append: %w", err)
	}
	if err := f.wal.Sync(); err != nil {
		f.rollbackLocked(err)
		return fmt.Errorf("catalog: wal fsync: %w", err)
	}
	f.walSize += int64(len(buf))
	for _, r := range recs {
		f.state.apply(r)
	}
	f.walRecords += len(recs)
	if f.walRecords >= compactThreshold {
		return f.compactLocked()
	}
	return nil
}

// rollbackLocked restores the WAL to the last durable frame boundary
// after a failed append. A partial frame left mid-file would read as a
// torn tail at replay and strand every *later* successfully-fsync'd
// record behind it — so if the rollback itself fails, the file is
// poisoned and all further appends are refused rather than silently
// un-durable; f.mu held.
func (f *File) rollbackLocked(cause error) {
	if err := f.wal.Truncate(f.walSize); err != nil {
		f.failErr = fmt.Errorf("truncate after %v: %w", cause, err)
		return
	}
	if _, err := f.wal.Seek(f.walSize, io.SeekStart); err != nil {
		f.failErr = fmt.Errorf("seek after %v: %w", cause, err)
	}
}

// Compact folds the WAL into a fresh snapshot and truncates it.
func (f *File) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("catalog: closed")
	}
	return f.compactLocked()
}

// compactLocked writes the snapshot atomically (temp + fsync + rename +
// directory fsync) and then truncates the WAL; f.mu held.
func (f *File) compactLocked() error {
	data, err := json.MarshalIndent(&f.state, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: encode snapshot: %w", err)
	}
	tmpPath := filepath.Join(f.dir, snapshotName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("catalog: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("catalog: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(f.dir, snapshotName)); err != nil {
		return fmt.Errorf("catalog: snapshot rename: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		return err
	}
	// The snapshot now covers every WAL record; drop them.
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("catalog: wal truncate: %w", err)
	}
	if _, err := f.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("catalog: wal fsync: %w", err)
	}
	f.walRecords = 0
	f.walSize = 0
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("catalog: dir fsync: %w", err)
	}
	return nil
}

// Close compacts, releases the WAL handle and drops the directory lock.
// The catalog on disk remains valid for a later Open.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	var err error
	if f.failErr == nil {
		err = f.compactLocked() // don't fold an indeterminate WAL tail into the snapshot
	}
	f.closed = true
	if cerr := f.wal.Close(); err == nil {
		err = cerr
	}
	if lerr := f.lock.Close(); err == nil { // closing the fd releases the flock
		err = lerr
	}
	return err
}
