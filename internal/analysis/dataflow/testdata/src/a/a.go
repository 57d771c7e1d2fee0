// Package a is the dataflow summary fixture: small functions whose
// summaries the test asserts exactly, importing the real catalog package
// through export data.
package a

import (
	"sync"

	"github.com/lds-storage/lds/internal/catalog"
)

// --- lease durability and fences ---------------------------------------

func durable(s *catalog.LeaseStore) { s.Release(0, 1, 2) }

func durableVia(s *catalog.LeaseStore) { durable(s) }

// mutual recursion settles at the fixpoint; plain recursion adds nothing.
func ping(s *catalog.LeaseStore, n int) {
	if n == 0 {
		durable(s)
		return
	}
	pong(s, n-1)
}

func pong(s *catalog.LeaseStore, n int) { ping(s, n) }

func recurse(s *catalog.LeaseStore) { recurse(s) }

func fenced(cur catalog.Lease, epoch uint64) bool { return cur.Epoch == epoch }

func fencedVia(cur catalog.Lease, epoch uint64) bool { return fenced(cur, epoch) }

func unfenced(cur catalog.Lease) int32 { return cur.Owner }

// --- joinability -------------------------------------------------------

type worker struct {
	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

func (w *worker) loop() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			return
		}
	}
}

func (w *worker) signal() { w.wg.Done() }

// joinability propagates through a deferred call...
func (w *worker) viaDefer() { defer w.signal() }

// ...but not through a plain call: calling into something that signals
// some other WaitGroup does not make this goroutine joinable.
func (w *worker) viaPlainCall() { w.signal() }

// a goroutine launched inside the body is not this function's join
// evidence.
func (w *worker) launches() {
	go func() {
		<-w.stop
	}()
}
