package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lds-storage/lds/internal/erasure"
	"github.com/lds-storage/lds/internal/erasure/mbr"
)

// span is one timed interval of the traced run. Operation spans are roots
// (id = (client+1)<<32 | the client's operation count). Code-call spans
// have parent 0: the call runs on a server goroutine, and tying it to the
// operation that caused it needs an id carried through the protocol —
// ROADMAP item 3, not this benchmark.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
}

// spanCap bounds the spans kept in memory. A settled read alone makes 55
// code calls, so an uncapped traced stretch would hold millions; the
// counters below cover every call, the span list the first spanCap.
const spanCap = 200_000

// codeCall indexes the per-method counters of tracedCode.
type codeCall int

const (
	callEncode codeCall = iota
	callEncodeNode
	callEncodeNodes
	callHelper
	callRegenerate
	callDecode
	numCodeCalls
)

var codeCallNames = [numCodeCalls]string{
	"mbr.encode", "mbr.encode_node", "mbr.encode_nodes", "mbr.helper", "mbr.regenerate", "mbr.decode",
}

// tracer keeps the traced run's spans and counters in memory; nothing is
// written until the run is over.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // counters and spans accumulate only while on

	calls [numCodeCalls]atomic.Int64
	busy  [numCodeCalls]atomic.Int64 // ns

	mu    sync.Mutex
	spans []span
	full  atomic.Bool // spanCap reached: callers stop taking mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, start, end time.Time, id, parent uint64) {
	if t.full.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < spanCap {
		t.spans = append(t.spans, span{name, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds(), id, parent})
	} else {
		t.full.Store(true)
	}
	t.mu.Unlock()
}

func (t *tracer) code(c codeCall, start time.Time) {
	if !t.on.Load() {
		return
	}
	end := time.Now()
	t.calls[c].Add(1)
	t.busy[c].Add(int64(end.Sub(start)))
	t.add(codeCallNames[c], start, end, 0, 0)
}

// op records one completed gateway call as a root span.
func (t *tracer) op(r opRecord) {
	if !t.on.Load() {
		return
	}
	name := "op.get"
	if r.put {
		name = "op.put"
	}
	t.add(name, r.start, r.end, uint64(r.client+1)<<32|r.n&0xffffffff, 0)
}

// codeTotals is a snapshot of the code counters.
type codeTotals struct {
	calls [numCodeCalls]int64
	busy  [numCodeCalls]time.Duration
}

func (t *tracer) totals() codeTotals {
	var out codeTotals
	for i := range out.calls {
		out.calls[i] = t.calls[i].Load()
		out.busy[i] = time.Duration(t.busy[i].Load())
	}
	return out
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// tracedCode times every call the protocol makes into the storage code. It
// is handed to the gateway as Config.Code, so the L1 and L2 servers and the
// readers of every sim group call through it. It deliberately does not
// embed the code: only the methods the protocol can reach are exposed, so
// no call bypasses the clock through a promoted method.
type tracedCode struct {
	c *mbr.Code
	t *tracer
}

var _ erasure.Regenerating = tracedCode{}

func (tc tracedCode) Params() erasure.Params      { return tc.c.Params() }
func (tc tracedCode) StripeSize() int             { return tc.c.StripeSize() }
func (tc tracedCode) NodeSymbols() int            { return tc.c.NodeSymbols() }
func (tc tracedCode) Stripes(valueLen int) int    { return tc.c.Stripes(valueLen) }
func (tc tracedCode) ShardSize(valueLen int) int  { return tc.c.ShardSize(valueLen) }
func (tc tracedCode) HelperSymbols() int          { return tc.c.HelperSymbols() }
func (tc tracedCode) HelperSize(valueLen int) int { return tc.c.HelperSize(valueLen) }

func (tc tracedCode) Encode(value []byte) ([][]byte, error) {
	defer tc.t.code(callEncode, time.Now())
	return tc.c.Encode(value)
}

func (tc tracedCode) EncodeNode(value []byte, node int) ([]byte, error) {
	defer tc.t.code(callEncodeNode, time.Now())
	return tc.c.EncodeNode(value, node)
}

func (tc tracedCode) EncodeNodes(value []byte, nodes []int) ([][]byte, error) {
	defer tc.t.code(callEncodeNodes, time.Now())
	return tc.c.EncodeNodes(value, nodes)
}

func (tc tracedCode) Helper(shard []byte, helperIdx, failedIdx int) ([]byte, error) {
	defer tc.t.code(callHelper, time.Now())
	return tc.c.Helper(shard, helperIdx, failedIdx)
}

func (tc tracedCode) Regenerate(failedIdx int, helpers []erasure.Helper) ([]byte, error) {
	defer tc.t.code(callRegenerate, time.Now())
	return tc.c.Regenerate(failedIdx, helpers)
}

func (tc tracedCode) Decode(valueLen int, shards []erasure.Shard) ([]byte, error) {
	defer tc.t.code(callDecode, time.Now())
	return tc.c.Decode(valueLen, shards)
}
