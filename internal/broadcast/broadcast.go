// Package broadcast implements the reliable metadata broadcast primitive the
// LDS algorithm uses for COMMIT-TAG messages (paper, Section III, citing the
// construction of Konwar et al., IPDPS 2016 [17]).
//
// The primitive's contract: if any non-faulty L1 server consumes a broadcast
// message, every non-faulty L1 server eventually consumes it, exactly once.
// The implementation is the paper's: the origin sends the message to a fixed
// set S_{f1+1} of f1+1 relay servers; each relay, on first reception,
// forwards it to all n1 servers before consuming it itself. With at most f1
// crashes, if anyone consumed then at least one relay forwarded to everyone.
//
// A Broadcaster is part of one L1 server's state and is driven by that
// server's steps: what it sends goes into the step's wire.Outbox. It holds no
// locks.
//
// A server that restarts empty is a new incarnation of its origin, and
// numbers its broadcasts from 1 again. Each broadcaster is created with an
// incarnation larger than every earlier one of its origin, and receivers
// keep their dedup state per (origin, incarnation): the first instance of
// a newer incarnation resets it, and a late instance of an older one is
// dropped, as if lost with the process that sent it.
package broadcast

import (
	"fmt"
	"slices"

	"github.com/lds-storage/lds/internal/wire"
)

// Broadcaster runs the relay protocol for one L1 server.
type Broadcaster struct {
	self   wire.ProcID
	peers  []wire.ProcID // all n1 L1 servers, including self
	relays []wire.ProcID // the fixed relay set S_{f1+1}

	isRelay bool
	inc     uint64
	nextSeq uint64
	seen    []originSeen // indexed like peers: origin peers[i]'s state at i
}

// originSeen is the dedup state for the latest incarnation inc seen of one
// origin: every seq up to floor has been seen, plus the ones in ahead, kept
// sorted. An incarnation numbers its broadcasts consecutively from 1 and
// each instance reaches every live server, so ahead holds only what
// reordering let overtake a missing seq; it is nil whenever nothing is out
// of order, and the state stays small however many broadcasts and
// incarnations have passed.
type originSeen struct {
	inc   uint64
	floor uint64
	ahead []uint64
}

// New creates a broadcaster for incarnation inc of the server self, which
// must exceed every earlier incarnation of self. peers must list all L1
// servers and is kept, not copied; the relay set is the first relayCount of
// them (a fixed set known to everyone, per the paper).
func New(self wire.ProcID, peers []wire.ProcID, relayCount int, inc uint64) (*Broadcaster, error) {
	if relayCount < 1 || relayCount > len(peers) {
		return nil, fmt.Errorf("broadcast: relay count %d out of range (1..%d)", relayCount, len(peers))
	}
	b := &Broadcaster{
		self:   self,
		peers:  peers,
		relays: peers[:relayCount],
		inc:    inc,
		seen:   make([]originSeen, len(peers)),
	}
	for _, r := range b.relays {
		if r == self {
			b.isRelay = true
		}
	}
	return b, nil
}

// Broadcast initiates a broadcast of inner: the origin sends it to the f1+1
// relay servers (possibly including itself; the copy then loops back through
// the network like any other message).
func (b *Broadcaster) Broadcast(inner wire.Message, out *wire.Outbox) {
	b.nextSeq++
	var msg wire.Message = wire.Broadcast{Origin: b.self, Seq: b.nextSeq, Inner: inner, Incarnation: b.inc} // boxed once for every relay
	for _, r := range b.relays {
		out.Send(r, msg)
	}
}

// Handle processes an incoming wire.Broadcast. It returns the inner message
// and consume=true exactly once per broadcast instance; duplicate receptions
// return consume=false. When this server is a relay seeing the instance for
// the first time, it forwards to all peers before consuming (the ordering
// the primitive's guarantee depends on). A message whose origin is not one
// of the peers is dropped without creating any state.
func (b *Broadcaster) Handle(msg wire.Broadcast, out *wire.Outbox) (inner wire.Message, consume bool) {
	i := int(msg.Origin.Index)
	if i < 0 || i >= len(b.peers) || b.peers[i] != msg.Origin {
		return nil, false
	}
	if !b.seen[i].add(msg.Incarnation, msg.Seq) {
		return nil, false
	}
	if b.isRelay {
		var fwd wire.Message = msg // boxed once for every peer
		for _, p := range b.peers {
			out.Send(p, fwd)
		}
	}
	return msg.Inner, true
}

// add records seq of incarnation inc and reports whether it was new.
func (o *originSeen) add(inc, seq uint64) bool {
	if inc > o.inc {
		*o = originSeen{inc: inc}
	}
	if inc < o.inc || seq <= o.floor {
		return false
	}
	if seq > o.floor+1 {
		at, dup := slices.BinarySearch(o.ahead, seq)
		if dup {
			return false
		}
		o.ahead = slices.Insert(o.ahead, at, seq)
		return true
	}
	// seq closes the gap at floor+1: advance past it and past every
	// instance that had overtaken it.
	o.floor = seq
	n := 0
	for n < len(o.ahead) && o.ahead[n] == o.floor+1 {
		o.floor++
		n++
	}
	if n == len(o.ahead) {
		o.ahead = nil
	} else if n > 0 {
		o.ahead = append(o.ahead[:0], o.ahead[n:]...)
	}
	return true
}

// SeenCount reports how many broadcast instances of the latest incarnations
// have been consumed or relayed; exposed for tests and storage accounting
// (the dedup set is metadata).
func (b *Broadcaster) SeenCount() int {
	n := 0
	for _, o := range b.seen {
		n += int(o.floor) + len(o.ahead)
	}
	return n
}
