package main

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/tag"
	"github.com/lds-storage/lds/internal/transport"
	"github.com/lds-storage/lds/internal/wire"
)

// Deliberate breakage, to show the benchmark notices (-fault, and the
// tests). Both faults need the tcp workload: they reach into the node
// hosts through nodehost's own test hooks.
const (
	// faultCorrupt flips a byte in the stored coded element of every second
	// L2 server after the load has settled, so the final reads regenerate
	// garbage. Every second one, not all: CorruptStored flips the same byte
	// everywhere, and the same flip in all n2 elements moves only a
	// redundant entry of MBR's symmetric message matrix, which decode never
	// reads.
	faultCorrupt = "corrupt"
	// faultWedge blocks every node-host handler after wedgeAfter puts: the
	// shape of ROADMAP item 1. Calls time out and Close cannot return.
	faultWedge = "wedge"
)

const wedgeAfter = 20

type fault struct {
	kind    string
	puts    atomic.Int64
	wedged  atomic.Bool
	release chan struct{}
	once    sync.Once
}

func newFault(kind string) *fault {
	return &fault{kind: kind, release: make(chan struct{})}
}

func (f *fault) instruments() instruments {
	if f.kind != faultWedge {
		return instruments{}
	}
	return instruments{wrapNet: func(n transport.Network) transport.Network { return wedgeNet{n, f} }}
}

// wrap returns the gateway calls the load drives, with the fault's trigger
// in the put path when it has one.
func (f *fault) wrap(sys *system) (putFunc, getFunc) {
	if f.kind != faultWedge {
		return sys.gw.Put, sys.gw.Get
	}
	return func(ctx context.Context, key string, value []byte) (tag.Tag, error) {
		if f.puts.Add(1) == wedgeAfter {
			f.wedged.Store(true)
		}
		return sys.gw.Put(ctx, key, value)
	}, sys.gw.Get
}

// afterSettle runs once the load has stopped and the offload has drained.
func (f *fault) afterSettle(sys *system) {
	if f.kind != faultCorrupt || sys.w.Backend != gateway.BackendTCP {
		return
	}
	p := geometry()
	for _, h := range sys.hosts {
		// Group namespaces are handed out from 0, one per key.
		for ns := int32(0); ns < int32(h.Groups()); ns++ {
			for i := int32(0); i < int32(p.N2); i += 2 {
				if l2 := h.L2(ns, i); l2 != nil {
					l2.CorruptStored()
				}
			}
		}
	}
}

// unwedge lets the blocked handlers go, so an abandoned Close can finish
// in the background instead of leaking its goroutines for good.
func (f *fault) unwedge() { f.once.Do(func() { close(f.release) }) }

// wedgeNet makes every handler registered through it block while the fault
// is active.
type wedgeNet struct {
	transport.Network
	f *fault
}

func (n wedgeNet) Register(id wire.ProcID, h transport.Handler) (transport.Node, error) {
	return n.Network.Register(id, func(env wire.Envelope) {
		if n.f.wedged.Load() {
			<-n.f.release
		}
		h(env)
	})
}
