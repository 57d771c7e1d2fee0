package gateway

import "sync"

// worker carries the joinability cases TestJoins asserts on the table
// directly; the launches below pin the same answers through the analyzer.
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

// mutual recursion settles at the fixpoint: ping joins through its
// deferred pong, which joins through the WaitGroup.
func (w *worker) ping(n int) {
	if n > 0 {
		defer w.pong(n - 1)
	}
}

func (w *worker) pong(n int) {
	defer w.ping(n)
	w.wg.Done()
}

func (w *worker) start() {
	go w.loop()
	go w.viaDefer()
	go w.ping(1)
	go w.viaPlainCall() // want "goroutine viaPlainCall is not joinable"
	go w.launches()     // want "goroutine launches is not joinable"
}
