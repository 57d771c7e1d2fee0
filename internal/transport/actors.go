package transport

import (
	"sync"

	"github.com/lds-storage/lds/internal/wire"
)

// The process -> actor map. A process is a table entry; what runs it is
// one of at most actorClasses*actorLanes goroutines, chosen from the id
// layout NamespaceStride fixes: class = group mod 16 spreads different
// keys, lane = (11*role + group-local index) mod 32 keeps one key's n1+n2
// servers on distinct actors (L1/i -> 1+i, L2/i -> 12+i). The shape is
// measured, not guessed (get_p50_ms against one goroutine per process, 512
// keys): one actor per server index (a single class) put every key's L1
// encode in front of every other key's reads, +26% on sim-mixed-zipf-4k
// and +44% on sim-write-16k; a random hash over 64 / 256 actors +33% /
// +15-24%; 16 classes +2-12%, and 64 classes bought nothing further.
const (
	actorClasses = 16
	actorLanes   = 32
)

func actorIndex(id wire.ProcID) int {
	group, local := uint32(id.Index)/NamespaceStride, uint32(id.Index)%NamespaceStride
	return int(group%actorClasses*actorLanes + (11*uint32(id.Role)+local)%actorLanes)
}

// Actors is the runtime channet and tcpnet share: it runs the handlers of
// any number of registered processes on a bounded set of goroutines, created
// on first use and joined by Close. Each process keeps the Handler contract
// (FIFO, one invocation at a time); processes on one actor additionally run
// one at a time with each other, so a handler must never wait for another
// process to make progress.
type Actors struct {
	// settle is told how many delivered items were just finished with: one
	// after each handler return or skipped item, and the whole backlog an
	// actor drops at Close. channet's WaitIdle counts on it.
	settle func(n int)

	mu     sync.Mutex
	actors [actorClasses * actorLanes]*actor
	wg     sync.WaitGroup
}

// NewActors returns an empty runtime; settle is called once per delivered
// item when it has been handled or dropped (with a count, at Close).
func NewActors(settle func(n int)) *Actors { return &Actors{settle: settle} }

// Process is one registered process: a handler attached to an actor.
type Process struct {
	actor   *actor
	handler Handler
	closed  bool // guarded by actor.mu
}

// Attach binds a new process to the actor its id maps to. It must not be
// called once Close has begun; both networks register under the lock that
// guards their own closed flag.
func (r *Actors) Attach(id wire.ProcID, h Handler) *Process {
	i := actorIndex(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.actors[i]
	if a == nil {
		a = &actor{signal: make(chan struct{}, 1)}
		a.idle.L = &a.mu
		r.actors[i] = a
		r.wg.Add(1)
		go r.run(a)
	}
	return &Process{actor: a, handler: h}
}

// Close stops every actor, dropping what is queued, and returns once all
// their goroutines have exited.
func (r *Actors) Close() {
	r.mu.Lock()
	actors := r.actors
	r.mu.Unlock()
	for _, a := range actors {
		if a != nil {
			r.settle(a.close())
		}
	}
	r.wg.Wait()
}

func (r *Actors) run(a *actor) {
	defer r.wg.Done()
	for {
		it, live, ok := a.pop()
		if !ok {
			return
		}
		if live {
			it.p.handler(it.env)
		}
		r.settle(1)
	}
}

// Deliver queues env for p. The item is bound to this process, not to its
// id: a later process registered under the same id never sees it. It
// reports false, having queued nothing, if p or the runtime is closed.
func (p *Process) Deliver(env wire.Envelope) bool { return p.actor.push(item{p, env}) }

// Close returns once no invocation of p's handler is running or will ever
// start; what is queued for p is dropped as its actor reaches it. Calling
// it from p's own handler deadlocks; from any other handler it is safe.
func (p *Process) Close() {
	a := p.actor
	a.mu.Lock()
	p.closed = true
	for a.running == p {
		a.idle.Wait()
	}
	a.mu.Unlock()
}

type item struct {
	p   *Process
	env wire.Envelope
}

// actor is one goroutine's unbounded FIFO queue. Unbounded is deliberate:
// reliable links must never exert backpressure that could deadlock two
// handlers sending to each other.
type actor struct {
	mu      sync.Mutex
	items   []item // items[head:] is the queue; items[:head] is popped and zeroed
	head    int
	running *Process  // whose handler the goroutine is in, nil between items
	idle    sync.Cond // broadcast when running changes; Process.Close waits on it
	signal  chan struct{}
	closed  bool
}

// push appends an item; it reports false if the actor or the process is
// closed.
func (a *actor) push(it item) bool {
	a.mu.Lock()
	if a.closed || it.p.closed {
		a.mu.Unlock()
		return false
	}
	if a.head > len(a.items)/2 && len(a.items) == cap(a.items) {
		// Full, and mostly popped slots (a queue that stays busy never
		// rewinds in pop): slide it down rather than grow the array.
		n := copy(a.items, a.items[a.head:])
		clear(a.items[n:])
		a.items, a.head = a.items[:n], 0
	}
	a.items = append(a.items, it)
	a.mu.Unlock()
	select {
	case a.signal <- struct{}{}:
	default:
	}
	return true
}

// pop marks the previous item finished and blocks for the next; live is
// false if its process has been closed (the item is to be dropped), else
// the process is marked running. ok is false once the actor is closed.
func (a *actor) pop() (it item, live, ok bool) {
	a.mu.Lock()
	a.running = nil
	a.idle.Broadcast()
	for a.head == len(a.items) {
		if a.closed {
			a.mu.Unlock()
			return item{}, false, false
		}
		a.mu.Unlock()
		<-a.signal
		a.mu.Lock()
	}
	it = a.items[a.head]
	// Zero the slot, or the array pins the message (and the value or shards
	// it carries) long after delivery -- on an idle server, forever -- and
	// rewind once empty so push reuses the array instead of allocating
	// behind an ever-advancing front.
	a.items[a.head] = item{}
	if a.head++; a.head == len(a.items) {
		a.items, a.head = a.items[:0], 0
	}
	if live = !it.p.closed; live {
		a.running = it.p
	}
	a.mu.Unlock()
	return it, live, true
}

// close marks the actor closed and returns the number of queued items it
// dropped, so the caller can reconcile the in-flight accounting.
func (a *actor) close() int {
	a.mu.Lock()
	a.closed = true
	dropped := len(a.items) - a.head
	a.items, a.head = nil, 0
	a.mu.Unlock()
	select {
	case a.signal <- struct{}{}:
	default:
	}
	return dropped
}
