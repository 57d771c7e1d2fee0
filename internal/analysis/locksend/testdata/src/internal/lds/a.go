// Fixture for locksend's internal/lds rule: the runtime adaptor's flush
// sends a step's outbox, so it must follow the process lock's release.
package lds

import "sync"

type process struct{ mu sync.Mutex }

func (p *process) flush() error { return nil }

// --- violations ---

func (p *process) flushUnderLock() {
	p.mu.Lock()
	p.flush() // want "outbox flush process.flush while holding p.mu"
	p.mu.Unlock()
}

// --- allowed ---

func (p *process) flushAfterUnlock() {
	p.mu.Lock()
	p.mu.Unlock()
	p.flush()
}
