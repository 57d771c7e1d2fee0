package wire

import "github.com/lds-storage/lds/internal/tag"

// This file defines the gateway fleet's peer plane: the messages gateway
// processes exchange with each other when several of them front one node
// fleet (docs/OPERATIONS.md, "Multi-gateway fleets"). Two message families
// share it:
//
//   - LeaseClaim / LeaseRenew are *announcements*. Shard ownership is
//     decided by the shared lease store (internal/catalog's LeaseStore),
//     whose claims are fsync'd before any of these messages is sent — the
//     write-ahead rule. The announcements only refresh the receiver's
//     ownership cache so forwarding finds the new owner without a disk
//     read; they carry the epoch so a delayed or duplicated announcement
//     can never roll a cache back (receivers ignore non-newer epochs).
//
//   - PeerForward carries one client operation (put or get) from the
//     gateway that received it to the shard's owner, and PeerForwardResp
//     carries the result back. Forwards are retried at-least-once like the
//     control RPCs, so receivers deduplicate by (sender, Seq) and replay
//     the recorded response; a duplicated forward must not double-apply a
//     put (the history checker would see a phantom write).
//
// Like the control plane, none of this belongs to the paper's protocol;
// it rides the same transport so a gateway needs exactly one listener.

// Peer-forwarded operations.
const (
	// PeerOpPut forwards a write; Value is the body.
	PeerOpPut uint8 = 1
	// PeerOpGet forwards a read; Value is empty.
	PeerOpGet uint8 = 2
)

// LeaseClaim announces that the sender claimed a shard's lease in the
// shared lease store (failover or first boot). The receiver updates its
// ownership cache if Epoch is newer than what it has.
type LeaseClaim struct {
	Seq   uint64
	Shard int32
	// Owner is the claiming gateway's fleet id.
	Owner int32
	// Epoch is the lease's fencing epoch as granted by the store; stale
	// announcements (Epoch not newer than the receiver's cache) are
	// dropped, which makes duplication and reordering harmless.
	Epoch uint64
	// Expiry is the granted lapse instant (Unix nanoseconds).
	Expiry int64
	// ReplyAddr is the sender's peer-plane listener, so the receiver can
	// route the response (and later forwards) without a static book.
	ReplyAddr string
}

// Kind implements Message.
func (LeaseClaim) Kind() Kind { return KindLeaseClaim }

// AppendTo implements Message.
func (m LeaseClaim) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Seq)
	b = appendInt32(b, m.Shard)
	b = appendInt32(b, m.Owner)
	b = appendUvarint(b, m.Epoch)
	b = appendInt64(b, m.Expiry)
	return appendBytes(b, []byte(m.ReplyAddr))
}

// PayloadBytes implements Message.
func (LeaseClaim) PayloadBytes() int { return 0 }

// LeaseClaimResp acknowledges a LeaseClaim.
type LeaseClaimResp struct {
	Seq   uint64
	Shard int32
}

// Kind implements Message.
func (LeaseClaimResp) Kind() Kind { return KindLeaseClaimResp }

// AppendTo implements Message.
func (m LeaseClaimResp) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Seq)
	return appendInt32(b, m.Shard)
}

// PayloadBytes implements Message.
func (LeaseClaimResp) PayloadBytes() int { return 0 }

// LeaseRenew announces a renewal of the sender's lease; same cache
// semantics as LeaseClaim (the epoch is unchanged by a renewal, so the
// receiver accepts it only for the epoch it already has or newer).
type LeaseRenew struct {
	Seq       uint64
	Shard     int32
	Owner     int32
	Epoch     uint64
	Expiry    int64
	ReplyAddr string
}

// Kind implements Message.
func (LeaseRenew) Kind() Kind { return KindLeaseRenew }

// AppendTo implements Message.
func (m LeaseRenew) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Seq)
	b = appendInt32(b, m.Shard)
	b = appendInt32(b, m.Owner)
	b = appendUvarint(b, m.Epoch)
	b = appendInt64(b, m.Expiry)
	return appendBytes(b, []byte(m.ReplyAddr))
}

// PayloadBytes implements Message.
func (LeaseRenew) PayloadBytes() int { return 0 }

// LeaseRenewResp acknowledges a LeaseRenew.
type LeaseRenewResp struct {
	Seq   uint64
	Shard int32
}

// Kind implements Message.
func (LeaseRenewResp) Kind() Kind { return KindLeaseRenewResp }

// AppendTo implements Message.
func (m LeaseRenewResp) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Seq)
	return appendInt32(b, m.Shard)
}

// PayloadBytes implements Message.
func (LeaseRenewResp) PayloadBytes() int { return 0 }

// PeerForward carries one client operation to the gateway that owns the
// key's shard. Forwards are never chained: a receiver that is not the
// owner answers NotOwner rather than forwarding again, and the origin
// refreshes its ownership cache and retries.
type PeerForward struct {
	Seq uint64
	// Op is PeerOpPut or PeerOpGet.
	Op  uint8
	Key string
	// Value is the put body (empty for gets).
	Value []byte
	// ReplyAddr is the origin gateway's peer-plane listener.
	ReplyAddr string
}

// Kind implements Message.
func (PeerForward) Kind() Kind { return KindPeerForward }

// AppendTo implements Message.
func (m PeerForward) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Seq)
	b = append(b, m.Op)
	b = appendBytes(b, []byte(m.Key))
	b = appendBytes(b, []byte(m.ReplyAddr))
	return appendBytes(b, m.Value)
}

// PayloadBytes implements Message: the forwarded value is data.
func (m PeerForward) PayloadBytes() int { return len(m.Value) }

// PeerForwardResp answers a PeerForward with the operation's result.
type PeerForwardResp struct {
	Seq uint64
	// NotOwner reports that the receiver does not hold the shard's lease;
	// the origin must refresh its ownership view and retry elsewhere.
	NotOwner bool
	// Err is the operation's failure, empty on success.
	Err string
	// Value is the get result (empty for puts).
	Value []byte
	// Tag is the operation's linearization tag (both puts and gets).
	Tag tag.Tag
}

// Kind implements Message.
func (PeerForwardResp) Kind() Kind { return KindPeerForwardResp }

// AppendTo implements Message.
func (m PeerForwardResp) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Seq)
	var flags uint8
	if m.NotOwner {
		flags = 1
	}
	b = append(b, flags)
	b = appendBytes(b, []byte(m.Err))
	b = appendTag(b, m.Tag)
	return appendBytes(b, m.Value)
}

// PayloadBytes implements Message: the returned value is data.
func (m PeerForwardResp) PayloadBytes() int { return len(m.Value) }

// --- decoders ---------------------------------------------------------------

func init() { registerPeerDecoders() }

func registerPeerDecoders() {
	register(KindLeaseClaim, func(b []byte) (Message, error) {
		m, err := decodeLeaseAnnounce(b)
		return LeaseClaim(m), err
	})
	register(KindLeaseRenew, func(b []byte) (Message, error) {
		m, err := decodeLeaseAnnounce(b)
		return LeaseRenew(m), err
	})
	register(KindLeaseClaimResp, func(b []byte) (Message, error) {
		var (
			m   LeaseClaimResp
			err error
		)
		if m.Seq, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		m.Shard, _, err = readInt32(b)
		return m, err
	})
	register(KindLeaseRenewResp, func(b []byte) (Message, error) {
		var (
			m   LeaseRenewResp
			err error
		)
		if m.Seq, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		m.Shard, _, err = readInt32(b)
		return m, err
	})
	register(KindPeerForward, func(b []byte) (Message, error) {
		var (
			m   PeerForward
			err error
		)
		if m.Seq, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		m.Op, b = b[0], b[1:]
		var key []byte
		if key, b, err = readBytes(b); err != nil {
			return nil, err
		}
		m.Key = string(key)
		var addr []byte
		if addr, b, err = readBytes(b); err != nil {
			return nil, err
		}
		m.ReplyAddr = string(addr)
		m.Value, _, err = readBytes(b)
		return m, err
	})
	register(KindPeerForwardResp, func(b []byte) (Message, error) {
		var (
			m   PeerForwardResp
			err error
		)
		if m.Seq, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		m.NotOwner = b[0]&1 != 0
		b = b[1:]
		var msg []byte
		if msg, b, err = readBytes(b); err != nil {
			return nil, err
		}
		m.Err = string(msg)
		if m.Tag, b, err = readTag(b); err != nil {
			return nil, err
		}
		m.Value, _, err = readBytes(b)
		return m, err
	})
}

// decodeLeaseAnnounce parses the shared body of LeaseClaim and LeaseRenew.
func decodeLeaseAnnounce(b []byte) (LeaseClaim, error) {
	var (
		m   LeaseClaim
		err error
	)
	if m.Seq, b, err = readUvarint(b); err != nil {
		return m, err
	}
	if m.Shard, b, err = readInt32(b); err != nil {
		return m, err
	}
	if m.Owner, b, err = readInt32(b); err != nil {
		return m, err
	}
	if m.Epoch, b, err = readUvarint(b); err != nil {
		return m, err
	}
	if m.Expiry, b, err = readInt64(b); err != nil {
		return m, err
	}
	addr, _, err := readBytes(b)
	m.ReplyAddr = string(addr)
	return m, err
}
