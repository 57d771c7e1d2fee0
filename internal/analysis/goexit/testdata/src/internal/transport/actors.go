// Package transport is the goexit fixture for the shared actor runtime:
// an actor goroutine must be joinable from the network's Close.
package transport

import "sync"

type actor struct {
	signal chan struct{}
	closed bool
}

// pop is the mailbox shape: it parks on a wake-up channel that is never
// closed, so it gives Close nothing to wait on by itself.
func (a *actor) pop() bool {
	<-a.signal
	return !a.closed
}

type runtime struct {
	wg sync.WaitGroup
}

// run is joined: Close waits on the WaitGroup.
func (r *runtime) run(a *actor) {
	defer r.wg.Done()
	for a.pop() {
	}
}

func (r *runtime) start(a *actor) {
	r.wg.Add(1)
	go r.run(a)
}

// runUnjoined drains the same mailbox with no join.
func (r *runtime) runUnjoined(a *actor) {
	for a.pop() {
	}
}

func (r *runtime) startUnjoined(a *actor) {
	go r.runUnjoined(a) // want "goroutine runUnjoined is not joinable"
}
