package lds

import (
	"fmt"

	"github.com/lds-storage/lds/internal/broadcast"
	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/wire"
)

// listEntry is one element of the temporary-storage list L: a tag with
// either a value or the bot placeholder, plus the writer-acknowledgment
// state of the tag. Riding the ack flag on the entry keeps the per-tag
// bookkeeping bounded by construction: it is pruned exactly when the entry
// is.
type listEntry struct {
	value    []byte
	hasValue bool
	acked    bool // PUT-DATA ack already sent to the tag's writer
}

// gammaEntry is one registered outstanding reader (an element of Gamma):
// the reader asked for tag Treq in the operation identified by OpID.
type gammaEntry struct {
	treq tag.Tag
	opID uint64
}

// regenState is the per-reader regeneration bookkeeping: K[r] plus
// readCounter[r], bound to the reader's operation id so stragglers from an
// earlier operation of the same reader cannot corrupt a later one.
// States are recycled through L1Server.regenFree, so the slices inside are
// long-lived and cleared between uses rather than reallocated.
type regenState struct {
	opID uint64
	// seen tracks which L2 servers have contributed; the channel model
	// permits duplication, and a duplicated helper must neither count
	// twice toward the n2-f2 quorum nor appear twice in a helper set
	// handed to Regenerate.
	seen respSet
	// helpers[i] arrived for tags[i], a value valueLens[i] bytes long.
	helpers   []erasure.Helper
	tags      []tag.Tag
	valueLens []int
}

// offloadItem is one queued unit of write-to-L2 work: a committed tag and
// the value to encode. The queue holds at most OffloadBatchCap items.
type offloadItem struct {
	t     tag.Tag
	value []byte
}

// L1Server is one edge-layer server s_j implementing the protocol of the
// paper's Fig. 2. It is a state machine: each Step is one atomic action of
// the I/O-automata description, and steps must not overlap.
//
// # Bounded bookkeeping
//
// All per-tag state is pruned when the committed tag tc advances past it:
// list entries below tc are deleted outright (after their values are
// garbage-collected and any still-pending writer acknowledgment is sent --
// safe because the server's tc is already >= the tag, the same condition
// under which put-data-resp acknowledges a stale write immediately), commit
// counters at or below tc are dropped and late COMMIT-TAG broadcasts for
// such tags are ignored (their duties are discharged), and offload ack
// tracking below tc is dropped (the L2 replace-if-newer rule makes those
// offloads moot). The maps therefore hold entries only for tc itself and
// for tags of writes still in flight.
//
// # Offload pipeline
//
// In the default OffloadBatched mode, write-to-L2 work is queued rather
// than fanned out synchronously: at most one batch round is in flight, and
// commits arriving while it travels coalesce in the queue -- the queue
// retains only the newest OffloadBatchCap tags, older pending tags being
// superseded (the L2 servers would discard them anyway). A drain sends one
// WriteCodeElemBatch per L2 server carrying every retained element.
type L1Server struct {
	params Params
	index  int // j in [0, n1); also the server's code symbol index
	id     wire.ProcID
	code   erasure.Regenerating
	l2     []wire.ProcID // all L2 servers, built once
	bcast  *broadcast.Broadcaster

	// State variables of Fig. 2.
	list          map[tag.Tag]*listEntry     // L, tag -> value or bot
	maxListTag    tag.Tag                    // cached max{t : (t,*) ever in L}
	tc            tag.Tag                    // committed tag
	commitCounter map[tag.Tag]int            // broadcasts consumed per tag > tc
	gamma         map[wire.ProcID]gammaEntry // Gamma: outstanding readers
	regen         map[wire.ProcID]*regenState

	// Offload pipeline state. offloads tracks, per sent tag, the distinct
	// L2 sender indices that acknowledged it (counting distinct senders --
	// not raw messages -- is what makes n2-f2 acks mean n2-f2 durable
	// copies); an entry is deleted the moment its quorum fires, so late or
	// duplicated acks are ignored. offloadHigh is the highest tag ever
	// handed to the pipeline and makes initiation idempotent.
	offloads        map[tag.Tag]map[int32]struct{}
	offloadQueue    []offloadItem
	offloadInflight bool
	inflightTag     tag.Tag // highest tag of the in-flight batch
	inflightAcks    map[int32]struct{}
	inflightElems   int
	offloadHigh     tag.Tag

	// Per-server reusable scratch. None of it is ever sent: the coded
	// shards and batch element slices that do travel (and that the simulated
	// network hands to L2 by reference) are always freshly allocated; only
	// the bookkeeping around them is recycled.
	l2Idx     []int                // code indices n1..n1+n2-1, fixed at boot
	perServer [][]wire.CodeElem    // drainOffload's outer headers (inner slices stay fresh)
	ackFree   []map[int32]struct{} // cleared ack-set maps awaiting reuse
	regenFree []*regenState        // cleared regeneration states awaiting reuse

	// tempBytes tracks the bytes of actual values held in L (the paper's
	// temporary storage cost).
	tempBytes int64

	// violations counts "cannot happen" states; tests assert it stays 0.
	violations int64
}

// NewL1Server creates the server with the list {(seed, bot)} and the
// committed tag at seed. With seed = tag.Zero that is the paper's initial
// state {(t0, bot)}. Any other seed boots the server from a snapshot: it is
// exactly the quiescent state an established server reaches once the seed
// tag's value has been offloaded to L2 and garbage-collected, so a group
// whose L2 layer is seeded with the snapshot value at the same tag
// (NewL2Server) behaves indistinguishably from one that executed a write of
// that value: get-tag answers seed (the next write strictly exceeds it), and
// reads regenerate the snapshot value from L2. The hook is what lets the
// gateway migrate a key between groups without breaking per-key atomicity.
//
// incarnation stamps the server's COMMIT-TAG broadcasts (see
// broadcast.New): it must exceed that of every earlier server with this
// index in the group, so peers that heard an earlier one, which numbered
// its broadcasts from 1 too, do not drop this one's as duplicates.
func NewL1Server(params Params, index int, code erasure.Regenerating, seed tag.Tag, incarnation uint64) (*L1Server, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if index < 0 || index >= params.N1 {
		return nil, fmt.Errorf("lds: L1 index %d out of range [0, %d)", index, params.N1)
	}
	s := &L1Server{
		params:        params,
		index:         index,
		id:            wire.ProcID{Role: wire.RoleL1, Index: int32(index)},
		code:          code,
		l2:            params.L2IDs(),
		list:          map[tag.Tag]*listEntry{seed: {}},
		maxListTag:    seed,
		tc:            seed,
		offloadHigh:   seed,
		commitCounter: make(map[tag.Tag]int),
		gamma:         make(map[wire.ProcID]gammaEntry),
		regen:         make(map[wire.ProcID]*regenState),
		offloads:      make(map[tag.Tag]map[int32]struct{}),
		l2Idx:         make([]int, params.N2),
		perServer:     make([][]wire.CodeElem, params.N2),
	}
	for i := range s.l2Idx {
		s.l2Idx[i] = params.L2CodeIndex(i)
	}
	bcast, err := broadcast.New(s.id, params.L1IDs(), params.RelayCount(), incarnation)
	if err != nil {
		return nil, err
	}
	s.bcast = bcast
	return s, nil
}

// ID returns the server's process id.
func (s *L1Server) ID() wire.ProcID { return s.id }

// CommittedTag returns tc; test/diagnostic accessor.
func (s *L1Server) CommittedTag() tag.Tag { return s.tc }

// TemporaryBytes returns the value bytes currently held in the list L, the
// server's contribution to temporary storage cost.
func (s *L1Server) TemporaryBytes() int64 { return s.tempBytes }

// OffloadQueueDepth returns the occupancy of the L2 offload pipeline:
// queued elements plus elements of the batch currently in flight.
func (s *L1Server) OffloadQueueDepth() int64 {
	return int64(len(s.offloadQueue) + s.inflightElems)
}

// Violations returns the count of internal invariant violations (must be 0).
func (s *L1Server) Violations() int64 { return s.violations }

// L1Bookkeeping is a point-in-time census of the server's per-tag and
// per-reader maps; soak tests assert every field stays bounded under
// sustained load.
type L1Bookkeeping struct {
	List           int // |L|
	CommitCounters int // tags with a live broadcast counter
	OffloadAcks    int // sent tags awaiting their L2 ack quorum
	OffloadQueue   int // tags queued for the next batch
	Readers        int // |Gamma|
	Regenerations  int // readers with an in-flight regeneration
}

// Total sums all census fields.
func (b L1Bookkeeping) Total() int {
	return b.List + b.CommitCounters + b.OffloadAcks + b.OffloadQueue + b.Readers + b.Regenerations
}

// Bookkeeping returns the current census.
func (s *L1Server) Bookkeeping() L1Bookkeeping {
	return L1Bookkeeping{
		List:           len(s.list),
		CommitCounters: len(s.commitCounter),
		OffloadAcks:    len(s.offloads),
		OffloadQueue:   len(s.offloadQueue),
		Readers:        len(s.gamma),
		Regenerations:  len(s.regen),
	}
}

// Step consumes one message from process from and queues the messages the
// action sends in out.
func (s *L1Server) Step(from wire.ProcID, msg wire.Message, out *wire.Outbox) {
	switch m := msg.(type) {
	case wire.QueryTag:
		s.onQueryTag(from, m, out)
	case wire.PutData:
		s.onPutData(from, m, out)
	case wire.Broadcast:
		s.onBroadcast(m, out)
	case wire.QueryCommTag:
		s.onQueryCommTag(from, m, out)
	case wire.QueryData:
		s.onQueryData(from, m, out)
	case wire.PutTag:
		s.onPutTag(from, m, out)
	case wire.AckCodeElem:
		s.creditAck(from, m.Tag, out)
	case wire.AckCodeElemBatch:
		for _, t := range m.Tags {
			s.creditAck(from, t, out)
		}
	case wire.SendHelperElem:
		s.onSendHelperElem(from, m, out)
	default:
		// Ignore unknown traffic.
	}
}

// onQueryTag is get-tag-resp: reply with max{t : (t,*) in L}. The cached
// maximum is monotone and survives pruning: entries are only ever deleted
// below tc, and tc itself stays in L, so the cache always equals the live
// maximum.
func (s *L1Server) onQueryTag(from wire.ProcID, m wire.QueryTag, out *wire.Outbox) {
	out.Send(from, wire.QueryTagResp{OpID: m.OpID, Tag: s.maxListTag})
}

// onPutData is put-data-resp (Fig. 2 lines 5-10): broadcast COMMIT-TAG
// first, then either add the pair to L (tin > tc) or acknowledge
// immediately (the value is already superseded).
func (s *L1Server) onPutData(from wire.ProcID, m wire.PutData, out *wire.Outbox) {
	s.bcast.Broadcast(wire.CommitTag{Tag: m.Tag}, out)
	if s.tc.Less(m.Tag) {
		e := s.ensureEntry(m.Tag)
		if !e.hasValue {
			e.value = m.Value
			e.hasValue = true
			s.tempBytes += int64(len(m.Value))
		}
		// The commit counter may already have crossed the threshold if the
		// broadcasts outran this PUT-DATA; re-check so the ACK and the
		// commit are never lost.
		s.maybeAckAndCommit(m.Tag, out)
	} else {
		out.Send(from, wire.PutDataResp{OpID: m.OpID, Tag: m.Tag})
	}
}

// onBroadcast feeds the relay/dedup primitive; each COMMIT-TAG instance is
// consumed exactly once via broadcast-resp.
func (s *L1Server) onBroadcast(m wire.Broadcast, out *wire.Outbox) {
	inner, consume := s.bcast.Handle(m, out)
	if !consume {
		return
	}
	ct, ok := inner.(wire.CommitTag)
	if !ok {
		s.violations++
		return
	}
	s.onCommitTag(ct.Tag, out)
}

// onCommitTag is broadcast-resp (Fig. 2 lines 11-19). Broadcast instances
// for tags at or below tc are dropped without counting: their ack and
// commit duties were discharged when tc passed them (see pruneSuperseded),
// and counting them would regrow the pruned counter without bound.
func (s *L1Server) onCommitTag(t tag.Tag, out *wire.Outbox) {
	if !s.tc.Less(t) {
		return
	}
	s.commitCounter[t]++
	s.maybeAckAndCommit(t, out)
}

// maybeAckAndCommit performs the threshold steps of broadcast-resp: once
// (t,*) is in L and commitCounter[t] >= f1+k, acknowledge the writer, and
// if t exceeds the committed tag, commit it -- serving registered readers,
// pruning superseded bookkeeping and offloading the value to L2.
func (s *L1Server) maybeAckAndCommit(t tag.Tag, out *wire.Outbox) {
	e, inList := s.list[t]
	if !inList || s.commitCounter[t] < s.params.WriteQuorum() {
		return
	}
	s.ackWriter(t, e, out)
	if !s.tc.Less(t) {
		return
	}
	if !e.hasValue {
		// The paper proves (tin, vin) is still in L whenever tin > tc holds
		// here; reaching this branch would falsify that argument.
		s.violations++
		return
	}
	s.tc = t
	s.serveGamma(t, e, out)
	s.pruneSuperseded(out)
	s.offload(t, e, out)
}

// ackWriter sends the PUT-DATA acknowledgment for t once. The server only
// ever calls it with tc >= t about to hold (commit) or already holding
// (supersession), matching the condition under which put-data-resp acks a
// stale write immediately.
func (s *L1Server) ackWriter(t tag.Tag, e *listEntry, out *wire.Outbox) {
	if e.acked {
		return
	}
	e.acked = true
	out.Send(wire.ProcID{Role: wire.RoleWriter, Index: t.W}, wire.PutDataResp{Tag: t})
}

// onQueryCommTag is get-commited-tag-resp: reply with tc.
func (s *L1Server) onQueryCommTag(from wire.ProcID, m wire.QueryCommTag, out *wire.Outbox) {
	out.Send(from, wire.QueryCommTagResp{OpID: m.OpID, Tag: s.tc})
}

// onQueryData is get-data-resp (Fig. 2 lines 30-38): serve from the list if
// possible, otherwise register the reader and regenerate from L2.
func (s *L1Server) onQueryData(from wire.ProcID, m wire.QueryData, out *wire.Outbox) {
	if e, ok := s.list[m.Req]; ok && e.hasValue {
		sendValue(from, m.OpID, m.Req, e, out)
		return
	}
	if m.Req.Less(s.tc) {
		if e, ok := s.list[s.tc]; ok && e.hasValue {
			sendValue(from, m.OpID, s.tc, e, out)
			return
		}
	}
	if g, ok := s.gamma[from]; ok && m.OpID < g.opID {
		return // a late copy of an earlier get-data must not displace this one
	}
	s.gamma[from] = gammaEntry{treq: m.Req, opID: m.OpID}
	s.startRegenerate(from, m.OpID, out)
}

// onPutTag is put-tag-resp (Fig. 2 lines 52-66): unregister the reader,
// adopt the written-back tag, serve any readers that the new committed tag
// satisfies, and prune superseded bookkeeping. A reader id's op ids grow (see
// opCore), so only a registration older than the put-tag is its own: links
// are not FIFO, and a put-tag arriving after the reader's next get-data must
// not cancel that one, or this server never answers it.
func (s *L1Server) onPutTag(from wire.ProcID, m wire.PutTag, out *wire.Outbox) {
	if g, ok := s.gamma[from]; ok && g.opID < m.OpID {
		delete(s.gamma, from)
		s.releaseRegen(from)
	}
	if s.tc.Less(m.Tag) {
		s.tc = m.Tag
		if e, ok := s.list[m.Tag]; ok && e.hasValue {
			s.serveGamma(m.Tag, e, out)
			// Late COMMIT-TAG broadcasts for m.Tag are ignored from now on
			// (tc has reached it), so the writer ack they would have
			// triggered is discharged here; tc >= m.Tag makes it safe.
			s.ackWriter(m.Tag, e, out)
			s.pruneSuperseded(out)
			s.offload(m.Tag, e, out)
		} else {
			s.ensureEntry(m.Tag) // add (tc, bot): the tag is now known here
			if tbar, ebar, ok := s.maxValueBelow(m.Tag); ok {
				s.serveGamma(tbar, ebar, out)
			}
			s.pruneSuperseded(out)
		}
	}
	out.Send(from, wire.PutTagResp{OpID: m.OpID})
}

// creditAck is write-to-L2-complete (Fig. 2 lines 24-27), hardened: acks
// are credited per distinct L2 sender, so duplicated or retransmitted acks
// can never count a durable copy twice, and only tags this server actually
// offloaded are tracked. After n2-f2 distinct senders acknowledged a tag,
// its value is durable in L2: the temporary copy is garbage-collected and
// the tag's ack state pruned. Completion of the in-flight batch (quorum on
// its highest tag) releases the next batch.
func (s *L1Server) creditAck(from wire.ProcID, t tag.Tag, out *wire.Outbox) {
	if from.Role != wire.RoleL2 || from.Index < 0 || int(from.Index) >= s.params.N2 {
		return // not a valid L2 sender
	}
	if acks, ok := s.offloads[t]; ok {
		acks[from.Index] = struct{}{}
		if len(acks) >= s.params.L2Quorum() {
			delete(s.offloads, t) // fired; later acks for t are ignored
			s.putAckSet(acks)
			if e, ok := s.list[t]; ok && e.hasValue {
				s.dropValue(e)
			}
		}
	}
	if s.offloadInflight && t == s.inflightTag {
		s.inflightAcks[from.Index] = struct{}{}
		if len(s.inflightAcks) >= s.params.L2Quorum() {
			s.offloadInflight = false
			s.putAckSet(s.inflightAcks)
			s.inflightAcks = nil
			s.inflightElems = 0
			s.drainOffload(out)
		}
	}
}

// onSendHelperElem is regenerate-from-L2-complete (Fig. 2 lines 42-51).
func (s *L1Server) onSendHelperElem(from wire.ProcID, m wire.SendHelperElem, out *wire.Outbox) {
	st := s.regen[m.Reader]
	if st == nil || st.opID != m.OpID {
		return // stale helper from a finished or superseded regeneration
	}
	if !st.seen.add(from.Index) {
		return // duplicated delivery (the model permits duplication)
	}
	st.helpers = append(st.helpers, erasure.Helper{Index: s.params.L2CodeIndex(int(from.Index)), Data: m.Helper})
	st.tags = append(st.tags, m.Tag)
	st.valueLens = append(st.valueLens, int(m.ValueLen))
	if st.seen.count() < s.params.L2Quorum() {
		return
	}
	// All awaited responses are in: regenerate the highest possible tag.
	delete(s.regen, m.Reader) // clear K[r]; the reader stays registered
	defer s.putRegenState(st) // recycle once the regeneration attempt ends
	g, registered := s.gamma[m.Reader]
	if !registered || g.opID != m.OpID {
		return // served via Gamma in the meantime
	}
	bestTag, valueLen, helpers := s.bestRegenerable(st)
	if helpers == nil || bestTag.Less(g.treq) {
		// Regeneration failed, or only an outdated tag was regenerable:
		// answer (bot, bot); the reader keeps waiting on other servers and
		// this server keeps the reader registered (paper, Section III-C).
		out.Send(m.Reader, wire.QueryDataResp{OpID: m.OpID, Class: wire.PayloadNone})
		return
	}
	coded, err := s.code.Regenerate(s.index, helpers)
	if err != nil {
		s.violations++
		out.Send(m.Reader, wire.QueryDataResp{OpID: m.OpID, Class: wire.PayloadNone})
		return
	}
	out.Send(m.Reader, wire.QueryDataResp{
		OpID:     m.OpID,
		Class:    wire.PayloadCoded,
		Tag:      bestTag,
		Data:     coded,
		ValueLen: int32(valueLen),
	})
}

// --- per-server scratch recycling -------------------------------------------
//
// The helpers below keep steady-state operation handling allocation-free:
// small maps and states are cleared and shelved on free lists. Nothing that
// is ever sent (coded shards, batch element slices, helper data) is.

// takeAckSet returns an empty per-tag ack set, reusing a cleared one when
// available.
func (s *L1Server) takeAckSet() map[int32]struct{} {
	if n := len(s.ackFree); n > 0 {
		m := s.ackFree[n-1]
		s.ackFree[n-1] = nil
		s.ackFree = s.ackFree[:n-1]
		return m
	}
	return make(map[int32]struct{}, s.params.L2Quorum())
}

// putAckSet clears an ack set and shelves it for reuse.
func (s *L1Server) putAckSet(m map[int32]struct{}) {
	if m == nil {
		return
	}
	clear(m)
	s.ackFree = append(s.ackFree, m)
}

// takeRegenState returns a reset regeneration state bound to opID.
func (s *L1Server) takeRegenState(opID uint64) *regenState {
	var st *regenState
	if n := len(s.regenFree); n > 0 {
		st = s.regenFree[n-1]
		s.regenFree[n-1] = nil
		s.regenFree = s.regenFree[:n-1]
	} else {
		st = &regenState{}
	}
	st.opID = opID
	st.seen.reset(s.params.N2)
	return st
}

// putRegenState recycles st, dropping every reference to received helper
// data so the shelved scratch cannot pin it.
func (s *L1Server) putRegenState(st *regenState) {
	if st == nil {
		return
	}
	clear(st.helpers)
	st.helpers, st.tags, st.valueLens = st.helpers[:0], st.tags[:0], st.valueLens[:0]
	s.regenFree = append(s.regenFree, st)
}

// releaseRegen unregisters and recycles the regeneration state of reader r,
// if any.
func (s *L1Server) releaseRegen(r wire.ProcID) {
	if st, ok := s.regen[r]; ok {
		delete(s.regen, r)
		s.putRegenState(st)
	}
}

// --- internal operations ----------------------------------------------------

// offload hands a freshly committed (t, v) to the write-to-L2 pipeline.
// Initiation is idempotent: tags at or below the highest ever offloaded
// are already covered (directly, or by supersession under the L2
// replace-if-newer rule).
func (s *L1Server) offload(t tag.Tag, e *listEntry, out *wire.Outbox) {
	if !s.offloadHigh.Less(t) {
		return
	}
	s.offloadHigh = t
	if s.params.Offload == OffloadUnbatched {
		shards, err := s.encodeL2(e.value)
		if err != nil {
			s.violations++
			return
		}
		s.offloads[t] = s.takeAckSet()
		for i, id := range s.l2 {
			out.Send(id, wire.WriteCodeElem{Tag: t, Coded: shards[i], ValueLen: int32(len(e.value))})
		}
		return
	}
	s.offloadQueue = append(s.offloadQueue, offloadItem{t: t, value: e.value})
	if over := len(s.offloadQueue) - OffloadBatchCap; over > 0 {
		// The oldest queued tags are superseded by the newer ones: L2 would
		// discard them on arrival, so they never travel at all.
		s.offloadQueue = append(s.offloadQueue[:0:0], s.offloadQueue[over:]...)
	}
	s.drainOffload(out)
}

// drainOffload sends the queued offload work as one batch round: every
// queued element, encoded under C2, travels to each L2 server in a single
// WriteCodeElemBatch. At most one round is in flight; the next drain is
// triggered by the round's ack quorum (creditAck).
func (s *L1Server) drainOffload(out *wire.Outbox) {
	if s.offloadInflight || len(s.offloadQueue) == 0 {
		return
	}
	batch := s.offloadQueue
	s.offloadQueue = nil
	// Reuse the outer header slice only (all nil between rounds): the inner
	// element slices travel to L2 inside WriteCodeElemBatch messages (by
	// reference on the simulated network) and may still be in flight past
	// the ack quorum, so they must be freshly allocated every round.
	perServer := s.perServer
	elems := 0
	var highest tag.Tag
	for _, it := range batch {
		shards, err := s.encodeL2(it.value)
		if err != nil {
			s.violations++
			continue
		}
		s.offloads[it.t] = s.takeAckSet()
		for i := range perServer {
			perServer[i] = append(perServer[i], wire.CodeElem{
				Tag:      it.t,
				Coded:    shards[i],
				ValueLen: int32(len(it.value)),
			})
		}
		highest = it.t // queue is tag-ascending; the last element is highest
		elems++
	}
	if elems == 0 {
		return
	}
	s.offloadInflight = true
	s.inflightTag = highest
	s.inflightAcks = s.takeAckSet()
	s.inflightElems = elems
	for i, id := range s.l2 {
		out.Send(id, wire.WriteCodeElemBatch{Elems: perServer[i]})
		perServer[i] = nil // sent: holding it would pin the round's n2 shards until the next offload
	}
}

// startRegenerate initiates regenerate-from-L2(r): query all L2 servers for
// helper data toward this server's own coded element c_j.
func (s *L1Server) startRegenerate(r wire.ProcID, opID uint64, out *wire.Outbox) {
	s.putRegenState(s.regen[r]) // supersede any previous attempt by r
	s.regen[r] = s.takeRegenState(opID)
	for _, id := range s.l2 {
		out.Send(id, wire.QueryCodeElem{Reader: r, OpID: opID})
	}
}

// bestRegenerable returns the highest tag for which at least d helpers
// arrived, with its value length and those helpers (moved to the front of
// st.helpers), or nil helpers if no tag is regenerable.
func (s *L1Server) bestRegenerable(st *regenState) (best tag.Tag, valueLen int, helpers []erasure.Helper) {
	found := false
	for i, t := range st.tags {
		n := 0
		for _, u := range st.tags {
			if u == t {
				n++
			}
		}
		if n >= s.params.D && (!found || best.Less(t)) {
			best, valueLen, found = t, st.valueLens[i], true
		}
	}
	if !found {
		return best, 0, nil
	}
	n := 0
	for i, t := range st.tags {
		if t == best {
			st.helpers[n] = st.helpers[i]
			n++
		}
	}
	return best, valueLen, st.helpers[:n]
}

// serveGamma sends (t, v) to every registered reader whose requested tag is
// at most t, and unregisters them (Fig. 2 line 17).
func (s *L1Server) serveGamma(t tag.Tag, e *listEntry, out *wire.Outbox) {
	for r, g := range s.gamma {
		if t.Less(g.treq) {
			continue
		}
		sendValue(r, g.opID, t, e, out)
		delete(s.gamma, r)
		s.releaseRegen(r)
	}
}

// pruneSuperseded is the bounded-bookkeeping sweep run whenever tc
// advances. It extends the paper's garbage collection (Fig. 2 line 18,
// which only blanks values) to the whole per-tag state:
//
//   - list entries below tc are deleted after their values are dropped; a
//     value whose writer was never acknowledged is acknowledged now (tc has
//     passed the tag, the stale-PUT-DATA ack condition).
//   - commit counters at or below tc are deleted; onCommitTag ignores late
//     broadcasts for such tags so the counters cannot regrow.
//   - offload ack tracking below tc is deleted: those elements are
//     superseded at L2 regardless of whether they were sent, and the
//     in-flight round's completion is tracked separately (inflightAcks).
//
// The maxListTag cache stays exact under pruning: only tags below tc are
// deleted, tc remains in the list, and the cache is monotone, so it always
// names a live entry.
func (s *L1Server) pruneSuperseded(out *wire.Outbox) {
	for t, e := range s.list {
		if !t.Less(s.tc) {
			continue
		}
		if e.hasValue {
			s.dropValue(e)
			s.ackWriter(t, e, out)
		}
		delete(s.list, t)
	}
	for t := range s.commitCounter {
		if !s.tc.Less(t) {
			delete(s.commitCounter, t)
		}
	}
	for t, acks := range s.offloads {
		if t.Less(s.tc) {
			delete(s.offloads, t)
			s.putAckSet(acks)
		}
	}
}

// maxValueBelow returns the largest tag below limit whose value is present.
func (s *L1Server) maxValueBelow(limit tag.Tag) (tag.Tag, *listEntry, bool) {
	var (
		best  tag.Tag
		entry *listEntry
	)
	for t, e := range s.list {
		if e.hasValue && t.Less(limit) && (entry == nil || best.Less(t)) {
			best = t
			entry = e
		}
	}
	return best, entry, entry != nil
}

// ensureEntry returns the list entry for t, creating the (t, bot)
// placeholder if absent, and maintains the cached max list tag.
func (s *L1Server) ensureEntry(t tag.Tag) *listEntry {
	if e, ok := s.list[t]; ok {
		return e
	}
	e := &listEntry{}
	s.list[t] = e
	s.maxListTag = tag.Max(s.maxListTag, t)
	return e
}

// dropValue clears an entry's value (tag stays, value becomes bot).
func (s *L1Server) dropValue(e *listEntry) {
	s.tempBytes -= int64(len(e.value))
	e.value = nil
	e.hasValue = false
}

// encodeL2 produces the n2 coded elements c_{n1}..c_{n1+n2-1} of value,
// freshly allocated: they go to L2, which retains them by reference.
func (s *L1Server) encodeL2(value []byte) ([][]byte, error) {
	return s.code.EncodeNodes(value, s.l2Idx)
}

// sendValue answers a reader with a (tag, value) pair.
func sendValue(to wire.ProcID, opID uint64, t tag.Tag, e *listEntry, out *wire.Outbox) {
	out.Send(to, wire.QueryDataResp{
		OpID:     opID,
		Class:    wire.PayloadValue,
		Tag:      t,
		Data:     e.value,
		ValueLen: int32(len(e.value)),
	})
}
