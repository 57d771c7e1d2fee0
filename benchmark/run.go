package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// result is everything one run reports.
type result struct {
	Workload string
	Seed     uint64
	Traced   bool
	Metrics  *metricSet
	verdict
	// Err is why the run could not finish (set-up failure, watchdog, a
	// Close that did not return); a run with Err set is a failed run even
	// if every completed operation verified.
	Err error
}

func (r *result) correct() bool { return r.Err == nil && r.failed == 0 && r.attempted > 0 }

// runConfig selects one run.
type runConfig struct {
	w     workload
	seed  uint64
	shape shape
	fault string // deliberate breakage, see faults.go; empty in product runs
	out   string // traced run: directory for <workload>.trace.json; empty writes none
}

func (c runConfig) keyCount() int {
	if c.shape.keys > 0 {
		return c.shape.keys
	}
	return c.w.Keys
}

// newClients builds the per-client generators and oracles of one run.
func (c runConfig) newClients() ([]*generator, []*oracle) {
	gens := make([]*generator, clients)
	oracles := make([]*oracle, clients)
	for i := range gens {
		gens[i] = newGenerator(c.w, c.keyCount(), c.seed, uint32(i))
		oracles[i] = newOracle(c.keyCount())
	}
	return gens, oracles
}

// withWatchdog runs fn under the run's hard wall-clock deadline. fn must
// return soon after its context ends; if it does not (a wedged handler the
// contexts cannot reach), the watchdog gives up on it and reports what the
// result holds so far.
func withWatchdog(nominal time.Duration, res *result, fn func(ctx context.Context)) {
	ctx, cancel := context.WithTimeout(context.Background(), hardFactor*nominal)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(ctx)
	}()
	select {
	case <-done:
		if res.Err == nil && ctx.Err() != nil {
			res.Err = fmt.Errorf("watchdog: run exceeded %v", hardFactor*nominal)
		}
	case <-time.After(hardFactor*nominal + 15*time.Second):
		res.Err = fmt.Errorf("watchdog: run still blocked %v after its deadline", 15*time.Second)
	}
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(cfg runConfig) *result {
	res := &result{Workload: cfg.w.Name, Seed: cfg.seed, Metrics: newMetricSet(endToEnd)}
	sh := cfg.shape
	nominal := sh.warmup + sh.measured() + time.Duration(sh.setups)*5*time.Second + 10*time.Second
	withWatchdog(nominal, res, func(ctx context.Context) { untraced(ctx, cfg, res) })
	return res
}

func untraced(ctx context.Context, cfg runConfig, res *result) {
	sh := cfg.shape
	keys := keyNames(cfg.keyCount())
	flt := newFault(cfg.fault)
	defer flt.unwedge() // after the deferred close below has had its chance

	// Set up several times and keep the last: setup_s is the median, so one
	// slow fsync does not decide it. Each set-up starts from a collected
	// heap, so none pays for its predecessor's garbage.
	var (
		sys      *system
		pre      *recorder
		setupSec []float64
	)
	for i := 0; i < sh.setups; i++ {
		if sys != nil {
			if err := sys.close(sh.closeTimeout); err != nil {
				res.Err = fmt.Errorf("close after set-up %d: %w", i, err)
				return
			}
		}
		runtime.GC()
		pre = &recorder{}
		var err error
		sys, err = setUp(ctx, cfg.w, keys, flt.instruments(), newGenerator(cfg.w, len(keys), cfg.seed, preloader), pre, sh.opTimeout)
		if err != nil {
			res.Err = fmt.Errorf("set-up: %w", err)
			return
		}
		setupSec = append(setupSec, sys.total.Seconds())
	}
	defer func() {
		if err := sys.close(sh.closeTimeout); err != nil && res.Err == nil {
			res.Err = err
		}
	}()
	res.Metrics.set("setup_s", median(setupSec))
	lo, hi := minMax(setupSec)
	res.Metrics.note("setup_s.min", lo, "s")
	res.Metrics.note("setup_s.max", hi, "s")

	gens, oracles := cfg.newClients()
	put, get := flt.wrap(sys)
	recs := drive(ctx, loadPlan{
		keys: keys, gens: gens, oracles: oracles,
		warmup: sh.warmup, window: sh.window, windows: sh.windows,
		timeout: sh.opTimeout, put: put, get: get,
	})
	reportWindows(res.Metrics, foldLoad(recs, sh.windows, sh.window))

	// Everything below is outside all timing.
	finals := &recorder{}
	if err := sys.settleOffload(ctx, settleFactor*sh.opTimeout); err != nil {
		res.Err = err
	}
	flt.afterSettle(sys)
	if stored, err := sys.permanentBytes(ctx); err != nil {
		res.Err = err
	} else {
		res.Metrics.set("stored_bytes_per_user_byte", float64(stored)/float64(len(keys)*cfg.w.ValueSize))
	}
	finalReads(ctx, sys.gw, keys, cfg.w.ValueSize, sh.opTimeout, finals)
	res.Metrics.set("peak_rss_mb", peakRSSMiB())
	res.verdict = verify(append(recs, pre), finals, len(keys))
}

func reportWindows(m *metricSet, w windowed) {
	for _, s := range []struct {
		name, unit string
		st         windowStat
		bounded    bool
	}{
		{"ops_per_s", "ops/s", w.opsPerS, true},
		{"put_p50_ms", "ms", w.putP50, true}, {"get_p50_ms", "ms", w.getP50, true},
		// The p95s are diagnostics: too unsteady on a shared host to carry a bound.
		{"put_p95_ms", "ms", w.putP95, false}, {"get_p95_ms", "ms", w.getP95, false},
	} {
		if s.bounded {
			m.set(s.name, s.st.med)
		} else {
			m.note(s.name, s.st.med, s.unit)
		}
		m.note(s.name+".min", s.st.lo, s.unit)
		m.note(s.name+".max", s.st.hi, s.unit)
	}
	m.note("put_samples_per_window.min", float64(w.minPuts), "count")
	m.note("get_samples_per_window.min", float64(w.minGets), "count")
	m.note("p95_windows_below_tail_guard", float64(w.unsupported), "count")
}

// peakRSSMiB is VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
