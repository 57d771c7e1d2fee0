package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/lds-storage/lds/internal/cost"
	"github.com/lds-storage/lds/internal/erasure/mbr"
	"github.com/lds-storage/lds/internal/gateway"
)

// The traced run splits -seconds over three stretches of the same load,
// each on a fresh system, and then runs the probes:
//
//   - reference: the product configuration, so tracing overhead is a ratio
//     taken inside one process;
//   - traced: tracedCode as Config.Code, with the gauge sampler and the
//     process counters around it;
//   - accounted (sim only): a cost.Accountant as Config.Accountant. It gets
//     a stretch of its own because it costs about a tenth of the throughput
//     (it re-encodes every message to size its metadata), which would
//     otherwise be charged to the code spans.
//
// End-to-end metrics never come from here.
const (
	referenceShare = 0.25
	tracedShare    = 0.35
	accountedShare = 0.15
)

// runTraced measures the per-layer metrics of one workload.
func runTraced(cfg runConfig) *result {
	res := &result{Workload: cfg.w.Name, Seed: cfg.seed, Traced: true, Metrics: newMetricSet(perLayer)}
	nominal := 3*cfg.shape.warmup + cfg.shape.measured() + 60*cfg.shape.probe + 20*time.Second
	withWatchdog(nominal, res, func(ctx context.Context) { traced(ctx, cfg, res) })
	return res
}

// stretch sets a system up with inst, warms it, runs `measured` of load in
// the shape's windows, verifies everything it did, and tears it down. It
// returns the records of the measured part and the (closed) system, whose
// set-up split stays readable. around, when set, brackets exactly the
// measured part while the system is live. A failure lands in res.Err.
func stretch(ctx context.Context, cfg runConfig, res *result, inst instruments, measured time.Duration,
	onOp func(opRecord), around func(sys *system, run func())) (recs []*recorder, sys *system) {
	sh := cfg.shape
	keys := keyNames(cfg.keyCount())
	pre := &recorder{}
	sys, err := setUp(ctx, cfg.w, keys, inst, newGenerator(cfg.w, len(keys), cfg.seed, preloader), pre, sh.opTimeout)
	if err != nil {
		res.Err = fmt.Errorf("set-up: %w", err)
		return nil, nil
	}
	defer func() {
		if err := sys.close(sh.closeTimeout); err != nil && res.Err == nil {
			res.Err = err
		}
	}()
	gens, oracles := cfg.newClients()
	plan := loadPlan{
		keys: keys, gens: gens, oracles: oracles,
		warmup: sh.warmup / 2, window: measured / time.Duration(sh.windows),
		timeout: sh.opTimeout, put: sys.gw.Put, get: sys.gw.Get, onOp: onOp,
	}
	warm := drive(ctx, plan) // no windows yet: the warm-up alone
	plan.warmup, plan.windows = 0, sh.windows
	run := func() { recs = drive(ctx, plan) }
	if around != nil {
		around(sys, run)
	} else {
		run()
	}
	finals := &recorder{}
	if err := sys.settleOffload(ctx, settleFactor*sh.opTimeout); err != nil {
		res.Err = err
	}
	finalReads(ctx, sys.gw, keys, cfg.w.ValueSize, sh.opTimeout, finals)
	v := verify(append(append(warm, recs...), pre), finals, len(keys))
	res.attempted += v.attempted
	res.failed += v.failed
	res.problems = append(res.problems, v.problems...)
	return recs, sys
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processSample is the process seen from outside at one instant.
type processSample struct {
	at         time.Time
	cpu        time.Duration
	mem        runtime.MemStats
	goroutines int
}

func sampleProcess() processSample {
	s := processSample{at: time.Now(), cpu: cpuTime(), goroutines: runtime.NumGoroutine()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// split sorts the measured operations' latencies by kind.
func split(recs []*recorder) (puts, gets []float64) {
	for _, r := range recs {
		for _, op := range r.ops {
			switch {
			case op.window < 0:
			case op.put:
				puts = append(puts, op.latencyMS())
			default:
				gets = append(gets, op.latencyMS())
			}
		}
	}
	sort.Float64s(puts)
	sort.Float64s(gets)
	return puts, gets
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func traced(ctx context.Context, cfg runConfig, res *result) {
	sh := cfg.shape
	m := res.Metrics
	part := func(share float64) time.Duration { return time.Duration(float64(sh.measured()) * share) }
	rate := func(recs []*recorder, length time.Duration) float64 {
		return foldLoad(recs, sh.windows, length/time.Duration(sh.windows)).opsPerS.med
	}

	ref, _ := stretch(ctx, cfg, res, instruments{}, part(referenceShare), nil, nil)
	if res.Err != nil {
		return
	}

	code, err := mbr.New(geometry().CodeParams())
	if err != nil {
		res.Err = err
		return
	}
	tr := newTracer()
	catalogCount := &countingCatalog{}
	var (
		before, after           processSample
		statsBefore, statsAfter []gateway.ShardStats
		depthMax, tempMax       int64
		groups, servers         int
	)
	recs, sys := stretch(ctx, cfg, res, instruments{code: tracedCode{code, tr}, catalog: catalogCount}, part(tracedShare), tr.op,
		func(sys *system, run func()) {
			stop, sampled := make(chan struct{}), make(chan struct{})
			go func() { // 10 Hz gauge sampler
				defer close(sampled)
				tick := time.NewTicker(100 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						if temp, depth, err := sys.gauges(ctx); err == nil {
							depthMax, tempMax = max(depthMax, depth), max(tempMax, temp)
						}
					}
				}
			}()
			statsBefore, before = sys.gw.Stats(), sampleProcess()
			tr.on.Store(true)
			run()
			tr.on.Store(false)
			after, statsAfter = sampleProcess(), sys.gw.Stats()
			close(stop)
			<-sampled
			for _, h := range sys.hosts {
				groups += h.Groups()
				servers += h.Servers()
			}
		})
	if res.Err != nil {
		return
	}

	// In vivo: what the workload paid, per operation.
	puts, gets := split(recs)
	nPut, nGet := float64(max(len(puts), 1)), float64(max(len(gets), 1))
	ops := nPut + nGet
	for _, q := range []struct {
		name string
		p    float64
	}{{"p95", 0.95}, {"p99", 0.99}} {
		v, _ := percentile(puts, q.p)
		m.set("gateway.put_"+q.name+"_ms", v)
		v, _ = percentile(gets, q.p)
		m.set("gateway.get_"+q.name+"_ms", v)
	}
	m.note("traced.puts", nPut, "count")
	m.note("traced.gets", nGet, "count")

	ct := tr.totals()
	encodeBusy := ct.busy[callEncode] + ct.busy[callEncodeNode] + ct.busy[callEncodeNodes]
	encodeCalls := ct.calls[callEncode] + ct.calls[callEncodeNode] + ct.calls[callEncodeNodes]
	readBusy := ct.busy[callHelper] + ct.busy[callRegenerate] + ct.busy[callDecode]
	readCalls := ct.calls[callHelper] + ct.calls[callRegenerate] + ct.calls[callDecode]
	cpu := max(after.cpu-before.cpu, 1)
	m.set("mbr.encode_busy_us_per_put", us(encodeBusy)/nPut)
	m.set("mbr.read_busy_us_per_get", us(readBusy)/nGet)
	m.set("mbr.calls_per_put", float64(encodeCalls)/nPut)
	m.set("mbr.calls_per_get", float64(readCalls)/nGet)
	m.set("mbr.busy_share", float64(encodeBusy+readBusy)/float64(cpu))
	// A Get that found its value in L1 temporary storage never decodes.
	m.set("lds.get_l1_served_share", 1-float64(ct.calls[callDecode])/nGet)
	for c, name := range codeCallNames {
		m.note(name+".calls", float64(ct.calls[c]), "count")
		m.note(name+".busy_ms", float64(ct.busy[c])/1e6, "ms")
	}

	m.set("gateway.offload_queue_depth_max", float64(depthMax))
	m.set("gateway.temp_bytes_max", float64(tempMax))
	var writes, reads uint64
	var writeLat, readLat time.Duration
	for i := range statsAfter {
		writes += statsAfter[i].Writes - statsBefore[i].Writes
		reads += statsAfter[i].Reads - statsBefore[i].Reads
		writeLat += statsAfter[i].WriteLatency - statsBefore[i].WriteLatency
		readLat += statsAfter[i].ReadLatency - statsBefore[i].ReadLatency
	}
	m.set("gateway.stats_mean_put_us", us(writeLat)/float64(max(writes, 1)))
	m.set("gateway.stats_mean_get_us", us(readLat)/float64(max(reads, 1)))
	nKeys := float64(cfg.keyCount())
	m.set("gateway.new_s", (sys.bootHosts + sys.newGW).Seconds())
	m.set("gateway.ensure_us_per_key", us(sys.ensure)/nKeys)
	m.set("gateway.preload_us_per_key", us(sys.preload)/nKeys)
	m.set("gateway.settle_s", sys.settle.Seconds())
	m.set("nodehost.groups", float64(groups))
	m.set("nodehost.servers", float64(servers))
	m.set("catalog.records_per_key", float64(catalogCount.records)/nKeys)
	m.note("catalog.appends", float64(catalogCount.appends), "count")
	m.note("catalog.append_busy_ms", float64(catalogCount.busy)/1e6, "ms")

	m.set("runtime.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/ops)
	m.set("runtime.alloc_kb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/ops)
	m.set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	m.set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	m.set("runtime.goroutines", float64(after.goroutines))
	cpuPerOp := us(cpu) / ops
	m.set("runtime.cpu_us_per_op", cpuPerOp)
	m.set("runtime.cpu_util", float64(cpu)/float64(max(after.at.Sub(before.at), 1))/float64(runtime.GOMAXPROCS(0)))

	refRate, tracedRate := rate(ref, part(referenceShare)), rate(recs, part(tracedShare))
	m.set("trace.overhead_share", 1-tracedRate/refRate)
	m.note("trace.reference_ops_per_s", refRate, "ops/s")
	m.note("trace.traced_ops_per_s", tracedRate, "ops/s")

	// Probes: each layer alone, at this workload's value size.
	pr := &prober{ctx: ctx, each: sh.probe, m: m, t: tr}
	pr.value, _ = newGenerator(cfg.w, 1, cfg.seed, preloader+1).value(0)
	costs, err := pr.run()
	if err != nil {
		res.Err = err
		return
	}

	// Traffic per operation. Over tcp the accountant sees nothing, but the
	// same protocol runs, so the single-client counts stand in, weighted by
	// the mix the traced stretch served; every message is also encoded and
	// decoded once.
	msgsPerOp := (costs.msgsPerPut*nPut + costs.msgsPerGet*nGet) / ops
	unitsPerOp := (costs.unitsPerPut*nPut + costs.unitsPerGet*nGet) / ops
	msgCPU := m.values["tcpnet.cpu_us_per_msg"]
	wireUS := msgsPerOp*(m.values["wire.encode_meta_ns"]+m.values["wire.decode_meta_ns"])/1e3 +
		unitsPerOp*(m.values["wire.encode_value_us"]+m.values["wire.decode_alias_value_us"])
	if cfg.w.Backend == gateway.BackendSim {
		acct := cost.NewAccountant()
		var traffic cost.Snapshot
		accounted, _ := stretch(ctx, cfg, res, instruments{acct: acct}, part(accountedShare), nil,
			func(_ *system, run func()) {
				start := acct.Snapshot()
				run()
				traffic = acct.Snapshot().Sub(start)
			})
		if res.Err != nil {
			return
		}
		aPuts, aGets := split(accounted)
		aOps := float64(max(len(aPuts)+len(aGets), 1))
		msgsPerOp = float64(traffic.TotalMessages()) / aOps
		unitsPerOp = traffic.NormalizedPayload(cfg.w.ValueSize) / aOps
		msgCPU = m.values["channet.cpu_us_per_msg"]
		wireUS = 0 // channet passes envelopes by reference: nothing is encoded
	}
	m.set("lds.msgs_per_op", msgsPerOp)
	m.set("lds.payload_units_per_op", unitsPerOp)
	m.note("model.wire_us_per_op", wireUS, "us")

	// CPU is additive where latency is not: the share of the process's CPU
	// per operation that the layers measured here account for.
	m.set("model.cpu_explained_share", (us(encodeBusy+readBusy)/ops+msgsPerOp*msgCPU+wireUS)/cpuPerOp)

	if cfg.out != "" {
		if err := tr.write(cfg.out, cfg.w.Name); err != nil {
			res.Err = fmt.Errorf("trace file: %w", err)
		}
	}
}

// run executes every probe, turning a probe's panic (a layer that returned
// an error on well-formed input) into the run's error.
func (p *prober) run() (c ldsCosts, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	p.kernels()
	p.transports()
	c = p.protocol()
	p.durable()
	return c, nil
}
