// Package cost implements the paper's cost model (Section II-d) in two
// halves: an Accountant that measures what the implementation actually
// transmits and stores, and the closed-form formulas of Section V that the
// benchmarks compare those measurements against.
//
// Per the paper, communication cost counts only data bytes (object values,
// coded elements, helper data), ignores metadata (tags, counters, ids), and
// is normalized by the object value size. Storage cost splits into temporary
// (L1 lists) and permanent (L2 coded elements), likewise normalized.
package cost

import (
	"sync"

	"github.com/lds-storage/lds/internal/wire"
)

// LinkClass buckets links the way the paper's latency/cost analysis does.
type LinkClass int

// Link classes.
const (
	ClientL1 LinkClass = iota // writer/reader <-> L1 (tau1)
	L1L1                      // L1 <-> L1 (tau0)
	L1L2                      // L1 <-> L2 (tau2)
	OtherLink
	numLinkClasses
)

// String names the link class.
func (c LinkClass) String() string {
	switch c {
	case ClientL1:
		return "client-L1"
	case L1L1:
		return "L1-L1"
	case L1L2:
		return "L1-L2"
	default:
		return "other"
	}
}

// Classify maps a (from, to) role pair to its link class.
func Classify(from, to wire.Role) LinkClass {
	switch {
	case from == wire.RoleL1 && to == wire.RoleL1:
		return L1L1
	case (from == wire.RoleL1 && to == wire.RoleL2) || (from == wire.RoleL2 && to == wire.RoleL1):
		return L1L2
	case from == wire.RoleL1 || to == wire.RoleL1:
		return ClientL1
	default:
		return OtherLink
	}
}

// ClassCounters aggregates traffic on one link class.
type ClassCounters struct {
	Messages int64
	Payload  int64 // data bytes: values, coded elements, helper data
	Meta     int64 // everything else; ignored by the paper's model
}

// Snapshot is a point-in-time copy of an Accountant.
type Snapshot struct {
	PerClass [numLinkClasses]ClassCounters
	// PerKindPayload tracks payload bytes by message kind, one row for
	// every wire.Kind value, so an operation's bill can exclude traffic
	// the paper charges elsewhere (e.g. a write's deferred write-to-L2
	// traffic landing inside a concurrent read's measurement window).
	PerKindPayload [1 << 8]int64
}

// Sub returns the delta s - prev, the traffic between two snapshots.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var out Snapshot
	for i := range s.PerClass {
		out.PerClass[i] = ClassCounters{
			Messages: s.PerClass[i].Messages - prev.PerClass[i].Messages,
			Payload:  s.PerClass[i].Payload - prev.PerClass[i].Payload,
			Meta:     s.PerClass[i].Meta - prev.PerClass[i].Meta,
		}
	}
	for i := range s.PerKindPayload {
		out.PerKindPayload[i] = s.PerKindPayload[i] - prev.PerKindPayload[i]
	}
	return out
}

// KindPayload returns the payload bytes carried by one message kind.
func (s Snapshot) KindPayload(k wire.Kind) int64 { return s.PerKindPayload[k] }

// TotalPayload sums payload bytes over all classes.
func (s Snapshot) TotalPayload() int64 {
	var t int64
	for i := range s.PerClass {
		t += s.PerClass[i].Payload
	}
	return t
}

// TotalMessages sums message counts over all classes.
func (s Snapshot) TotalMessages() int64 {
	var t int64
	for i := range s.PerClass {
		t += s.PerClass[i].Messages
	}
	return t
}

// NormalizedPayload returns total payload divided by the value size: the
// paper's communication-cost unit ("costs are expressed as though size of v
// is 1 unit").
func (s Snapshot) NormalizedPayload(valueSize int) float64 {
	if valueSize <= 0 {
		return 0
	}
	return float64(s.TotalPayload()) / float64(valueSize)
}

// Class returns the counters of one link class.
func (s Snapshot) Class(c LinkClass) ClassCounters { return s.PerClass[c] }

// Accountant tallies traffic; its Observe method plugs into the channet
// Observer hook. Safe for concurrent use.
type Accountant struct {
	mu   sync.Mutex
	snap Snapshot
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant { return &Accountant{} }

// Observe records one envelope; matches channet.Observer.
func (a *Accountant) Observe(env wire.Envelope) {
	class := Classify(env.From.Role, env.To.Role)
	meta, payload := wire.Sizes(env.Msg)
	kind := env.Msg.Kind()
	a.mu.Lock()
	c := &a.snap.PerClass[class]
	c.Messages++
	c.Payload += int64(payload)
	c.Meta += int64(meta)
	a.snap.PerKindPayload[kind] += int64(payload)
	a.mu.Unlock()
}

// Snapshot returns a copy of the current counters.
func (a *Accountant) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.snap
}

// Reset zeroes the counters.
func (a *Accountant) Reset() {
	a.mu.Lock()
	a.snap = Snapshot{}
	a.mu.Unlock()
}
