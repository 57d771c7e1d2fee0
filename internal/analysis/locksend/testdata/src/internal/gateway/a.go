// Fixture for the locksend analyzer, in a directory whose import path
// ends in internal/gateway so the package gate applies.
package gateway

import (
	"net"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/wire"
)

type transport interface {
	Send(to wire.ProcID, m wire.Message) error
}

type mgr struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	conn net.Conn
	tr   transport
	seq  int
}

// --- violations ---

func (m *mgr) sendUnderLock() {
	m.mu.Lock()
	m.ch <- 1 // want "channel send while holding m.mu"
	m.mu.Unlock()
}

func (m *mgr) sendUnderDeferredLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ch <- 1 // want "channel send while holding m.mu"
}

func (m *mgr) sendUnderRLock() {
	m.rw.RLock()
	defer m.rw.RUnlock()
	m.ch <- 1 // want "channel send while holding m.rw"
}

func (m *mgr) connWriteUnderLock(b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.conn.Write(b) // want "net.Conn.Write while holding m.mu"
}

func (m *mgr) transportSendUnderLock(to wire.ProcID, msg wire.Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tr.Send(to, msg) // want "transport Send while holding m.mu"
}

func (m *mgr) sleepUnderLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	time.Sleep(time.Second) // want "sleep time.Sleep while holding m.mu"
}

func (m *mgr) blockingSelectUnderLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case m.ch <- 1: // want "blocking select arm while holding m.mu"
		m.seq++
	}
}

func (m *mgr) rpcResultUnderLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.tr.Send(wire.ProcID{}, nil) // want "transport Send while holding m.mu"
	_ = err
}

// remoteManager, request and eachNode stand in for the gateway's control
// RPCs: a method, a generic function called instantiated, and a fan-out.
type remoteManager struct{ mu sync.Mutex }

func (m *remoteManager) reconcile() {}

func request[T any](m *remoteManager) (T, error) {
	var t T
	return t, nil
}

func eachNode(ids []int32, fn func(id int32)) {}

func (m *remoteManager) reconcileUnderLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reconcile() // want "control RPC remoteManager.reconcile while holding m.mu"
}

func (m *remoteManager) requestUnderLock() {
	m.mu.Lock()
	_, err := request[wire.NodePong](m) // want "control RPC gateway.request while holding m.mu"
	m.mu.Unlock()
	_ = err
}

func (m *remoteManager) eachNodeUnderLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	eachNode(nil, func(int32) {}) // want "per-node control RPC fan-out gateway.eachNode while holding m.mu"
}

// --- allowed ---

func (m *mgr) copyThenSend() {
	m.mu.Lock()
	v := m.seq
	m.mu.Unlock()
	m.ch <- v
}

func (m *mgr) nonBlockingSelect() {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case m.ch <- 1: // a default arm makes this a poll, not a wait
		m.seq++
	default:
	}
}

func (m *mgr) unlockedBranchThenSend(ready bool) {
	m.mu.Lock()
	if !ready {
		m.mu.Unlock()
		m.ch <- 0 // unlocked on this path
		return
	}
	m.seq++
	m.mu.Unlock()
	m.ch <- m.seq
}

func (m *mgr) goroutineDoesNotInherit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	go func() {
		m.ch <- 1 // runs on its own goroutine, without the caller's locks
	}()
}

func (m *remoteManager) requestAfterUnlock() {
	m.mu.Lock()
	m.mu.Unlock()
	request[wire.NodePong](m)
}

func (m *mgr) deferredSendRunsAfterBody() {
	m.mu.Lock()
	m.seq++
	m.mu.Unlock()
}
