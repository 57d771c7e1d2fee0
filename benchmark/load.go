package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/history"
	"github.com/lds-storage/lds/internal/tag"
)

// opRecord is one completed gateway call. Failed calls are counted, not
// recorded: an operation that failed has no place in the history.
type opRecord struct {
	key    int32
	put    bool
	client uint32
	n      uint64 // the client's operation count, this one included
	start  time.Time
	end    time.Time
	tag    tag.Tag
	id     valueID
	window int // measurement window the call ended in; -1 outside all of them
}

func (r opRecord) latencyMS() float64 { return float64(r.end.Sub(r.start)) / float64(time.Millisecond) }

// recorder is one goroutine's log of completed calls plus its failure
// count; each client owns one, so the hot loop takes no lock.
type recorder struct {
	ops       []opRecord
	attempted int
	failed    int
	firstErr  error
}

func (r *recorder) add(op opRecord) {
	r.attempted++
	r.ops = append(r.ops, op)
}

func (r *recorder) fail(err error) {
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// oracle is one client's memory of the newest tag it saw on each key: the
// tags a client sees on a key never go backwards.
type oracle struct{ lastTag []tag.Tag }

func newOracle(keys int) *oracle { return &oracle{lastTag: make([]tag.Tag, keys)} }

// observe checks one completed call against the client's own past. Equal
// tags are legal for reads (two reads of one write) and never for a write.
func (o *oracle) observe(key int, put bool, t tag.Tag) error {
	prev := o.lastTag[key]
	if t.Less(prev) || (put && t == prev) {
		return fmt.Errorf("key %d: tag %v after this client already saw %v", key, t, prev)
	}
	o.lastTag[key] = t
	return nil
}

// putFunc and getFunc are the two gateway calls; spans and faults wrap them.
type (
	putFunc func(ctx context.Context, key string, value []byte) (tag.Tag, error)
	getFunc func(ctx context.Context, key string) ([]byte, tag.Tag, error)
)

// loadPlan is one stretch of closed-loop load: a warm-up, then windows.
type loadPlan struct {
	keys    []string
	gens    []*generator // one per client; they carry over between stretches
	oracles []*oracle
	warmup  time.Duration
	window  time.Duration
	windows int
	timeout time.Duration
	put     putFunc
	get     getFunc
	// onOp, when set, sees every completed call (the traced run's spans).
	onOp func(opRecord)
}

// drive runs the plan's clients to completion and returns one recorder per
// client. It stops early when ctx ends (the run's hard deadline).
func drive(ctx context.Context, p loadPlan) []*recorder {
	recs := make([]*recorder, len(p.gens))
	var wg sync.WaitGroup
	t0 := time.Now().Add(p.warmup)
	total := time.Duration(p.windows) * p.window
	for c := range p.gens {
		recs[c] = &recorder{}
		wg.Add(1)
		go func(g *generator, o *oracle, rec *recorder) {
			defer wg.Done()
			for ctx.Err() == nil {
				if time.Since(t0) >= total {
					return
				}
				key, put := g.op()
				var (
					value []byte
					id    valueID
					t     tag.Tag
					err   error
				)
				if put {
					value, id = g.value(key)
				}
				opCtx, cancel := context.WithTimeout(ctx, p.timeout)
				start := time.Now()
				if put {
					t, err = p.put(opCtx, p.keys[key], value)
				} else {
					value, t, err = p.get(opCtx, p.keys[key])
				}
				end := time.Now()
				cancel()
				if err == nil && !put {
					id, err = checkValue(value, key, g.w.ValueSize)
				}
				if err == nil {
					err = o.observe(key, put, t)
				}
				if err != nil {
					rec.fail(err)
					continue
				}
				op := opRecord{key: int32(key), put: put, client: g.client, n: g.nops, start: start, end: end, tag: t, id: id, window: -1}
				if since := end.Sub(t0); since >= 0 && since < total {
					op.window = int(since / p.window)
				}
				rec.add(op)
				if p.onOp != nil {
					p.onOp(op)
				}
			}
		}(p.gens[c], p.oracles[c], recs[c])
	}
	wg.Wait()
	return recs
}

// windowed is the per-window arithmetic over a stretch of load.
type windowed struct {
	opsPerS                        windowStat
	putP50, putP95, getP50, getP95 windowStat
	minPuts, minGets               int // smallest per-window sample counts
	unsupported                    int // windows whose p95 had fewer than tailGuard samples beyond it
}

func foldLoad(recs []*recorder, windows int, window time.Duration) windowed {
	puts := make([][]float64, windows)
	gets := make([][]float64, windows)
	for _, r := range recs {
		for _, op := range r.ops {
			switch {
			case op.window < 0:
			case op.put:
				puts[op.window] = append(puts[op.window], op.latencyMS())
			default:
				gets[op.window] = append(gets[op.window], op.latencyMS())
			}
		}
	}
	out := windowed{minPuts: -1, minGets: -1}
	// side folds one kind's per-window samples into its p50 and p95 stats.
	side := func(perWindow [][]float64, fewest *int) (p50, p95 windowStat) {
		var v50, v95 []float64
		for _, samples := range perWindow {
			sort.Float64s(samples)
			a, _ := percentile(samples, 0.50)
			b, ok := percentile(samples, 0.95)
			if !ok {
				out.unsupported++
			}
			v50, v95 = append(v50, a), append(v95, b)
			if *fewest < 0 || len(samples) < *fewest {
				*fewest = len(samples)
			}
		}
		return foldWindows(v50), foldWindows(v95)
	}
	out.putP50, out.putP95 = side(puts, &out.minPuts)
	out.getP50, out.getP95 = side(gets, &out.minGets)
	rate := make([]float64, windows)
	for i := range rate {
		rate[i] = float64(len(puts[i])+len(gets[i])) / window.Seconds()
	}
	out.opsPerS = foldWindows(rate)
	return out
}

// verdict is the post-run verification's result.
type verdict struct {
	attempted, failed int
	problems          []string // first few, for the report
}

func (v *verdict) problem(format string, args ...any) {
	if len(v.problems) < 8 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// finalReads gets every key once more and checks it returns the newest
// recorded Put; the reads join the history.
func finalReads(ctx context.Context, gw *gateway.Gateway, keys []string, valueSize int, timeout time.Duration, rec *recorder) {
	for k, name := range keys {
		opCtx, cancel := context.WithTimeout(ctx, timeout)
		start := time.Now()
		value, t, err := gw.Get(opCtx, name)
		end := time.Now()
		cancel()
		var id valueID
		if err == nil {
			id, err = checkValue(value, k, valueSize)
		}
		if err != nil {
			rec.fail(fmt.Errorf("final read of %s: %w", name, err))
			continue
		}
		rec.add(opRecord{key: int32(k), client: preloader, start: start, end: end, tag: t, id: id, window: -1})
	}
}

// verify runs each key's history through the atomicity checkers and the
// final-read rule. finals are the records finalReads produced. Every
// operation of a key whose history fails counts as failed.
func verify(recs []*recorder, finals *recorder, keys int) verdict {
	var v verdict
	perKey := make([][]history.Op, keys)
	newest := make([]opRecord, keys) // highest-tag Put per key
	for _, r := range append(append([]*recorder(nil), recs...), finals) {
		v.attempted += r.attempted
		v.failed += r.failed
		if r.firstErr != nil {
			v.problem("%v (and %d more failed calls)", r.firstErr, r.failed-1)
		}
		for _, op := range r.ops {
			kind := history.OpRead
			if op.put {
				kind = history.OpWrite
				if newest[op.key].tag.Less(op.tag) {
					newest[op.key] = op
				}
			}
			perKey[op.key] = append(perKey[op.key], history.Op{
				Kind: kind, Client: int32(op.client), Start: op.start, End: op.end,
				Tag: op.tag, Value: op.id.String(),
			})
		}
	}
	bad := make([]bool, keys)
	for _, op := range finals.ops {
		if want := newest[op.key]; op.tag != want.tag || op.id != want.id {
			bad[op.key] = true
			v.problem("key %d: final read returned %v at %v, newest write is %v at %v", op.key, op.id, op.tag, want.id, want.tag)
		}
	}
	for k, ops := range perKey {
		viol := history.Verify(ops)
		viol = append(viol, history.VerifyUniqueValues(ops, "")...)
		if len(viol) > 0 {
			bad[k] = true
			v.problem("key %d: %v (%d violations)", k, viol[0], len(viol))
		}
		if bad[k] {
			v.failed += len(ops)
		}
	}
	return v
}
