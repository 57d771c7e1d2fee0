package main

import (
	"fmt"
	"math"
	"time"

	"github.com/lds-storage/lds/internal/gateway"
	"github.com/lds-storage/lds/internal/lds"
)

// Fixed load shape shared by every workload (see README.md): the
// paper-regime geometry of BenchmarkOperations, two shards, two
// closed-loop clients — the reference host has two cores, and a generator
// with more goroutines than cores measures its own scheduling.
const (
	clients   = 2
	shards    = 2
	tcpNodes  = 3
	numWindow = 5
	// runSeconds is BENCHMARK.json's run_seconds: five 5 s windows.
	runSeconds = 25
)

func geometry() lds.Params {
	p, err := lds.NewParams(6, 8, 1, 2)
	if err != nil {
		panic(fmt.Sprintf("benchmark: geometry: %v", err))
	}
	return p
}

// workload is one traffic mix. Names are fixed: later issues cite them.
type workload struct {
	Name      string
	Backend   string  // gateway.BackendSim or gateway.BackendTCP
	Keys      int     // working set, one LDS group each
	Zipf      float64 // key-choice exponent; 0 selects uniform
	ValueSize int
	PutShare  float64
	Why       string
}

var workloads = []workload{
	{
		Name: "sim-mixed-zipf-4k", Backend: gateway.BackendSim,
		Keys: 512, Zipf: 1.2, ValueSize: 4 << 10, PutShare: 0.5,
		Why: "headline: every in-process layer works, skewed keys, 512 groups (about 9k actor goroutines) larger than the CPU caches",
	},
	{
		Name: "sim-read-settled-4k", Backend: gateway.BackendSim,
		Keys: 512, ValueSize: 4 << 10, PutShare: 0.1,
		Why: "reads of settled keys regenerate from L2: helper, regenerate and decode dominate, encode does almost nothing",
	},
	{
		Name: "sim-write-16k", Backend: gateway.BackendSim,
		Keys: 64, ValueSize: 16 << 10, PutShare: 0.8,
		Why: "bytes dominate: EncodeNodes on every L1 server and value copies set the pace, protocol round trips are noise",
	},
	{
		Name: "tcp-mixed-1k", Backend: gateway.BackendTCP,
		Keys: 256, ValueSize: 1 << 10, PutShare: 0.5,
		Why: "small values over loopback sockets and a durable catalog: wire, tcpnet and fsync do the work, erasure does little",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape is how long and how carefully one run measures. The product
// values come from -seconds; tests shrink them.
type shape struct {
	keys    int // 0 keeps the workload's key count
	setups  int // set-ups timed per run; setup_s is their median
	warmup  time.Duration
	window  time.Duration
	windows int
	// opTimeout bounds every gateway call, closeTimeout every Close; a run
	// that outlives hardFactor times its nominal length is abandoned.
	opTimeout    time.Duration
	closeTimeout time.Duration
	probe        time.Duration // per-layer probe length (traced run)
}

const hardFactor = 3

func productShape(seconds int) shape {
	return shape{
		setups:       5,
		warmup:       2 * time.Second,
		window:       time.Duration(seconds) * time.Second / numWindow,
		windows:      numWindow,
		opTimeout:    5 * time.Second,
		closeTimeout: 10 * time.Second,
		probe:        150 * time.Millisecond,
	}
}

// quickShape is the smoke-test size: 8 keys, 0.2 s windows.
func quickShape() shape {
	return shape{
		keys:         8,
		setups:       1,
		warmup:       50 * time.Millisecond,
		window:       200 * time.Millisecond,
		windows:      numWindow,
		opTimeout:    5 * time.Second,
		closeTimeout: 10 * time.Second,
		probe:        5 * time.Millisecond,
	}
}

func (s shape) measured() time.Duration { return time.Duration(s.windows) * s.window }

// metricDef declares one metric exactly as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd is what a user of the gateway sees. failed operations are not a
// metric here: they are the result line's attempted/failed/correct fields
// and fail the run outright. The bounds are set from the run-to-run spreads
// measured on the two-core reference host (README.md), whose slow phases of
// a minute or two move throughput by 7% on a good day and halve it on a bad
// one: ten runs of one commit have spread 17% on p50, so a bound below the
// permitted maximum of 25% would refuse unchanged code. Tail
// latency has no bound: on that host p95 sits on the knee between the body
// of the distribution and its GC/scheduler tail, and runs of one commit
// spread past 30% (README.md, "Run-to-run noise"). It is reported unbounded
// as gateway.*_p95_ms and gateway.*_p99_ms in the traced run and as a
// diagnostic line in every untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"put_p50_ms", "ms", "lower", 0.25},
	{"get_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.01},
}

// perLayer is the traced run's output, grouped by the layer it measures.
// README.md maps each group to the end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "gf.addmul_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "gf.add_mb_s", Unit: "MB/s", Better: "higher"},

	{Name: "matrix.mul_ns", Unit: "ns", Better: "lower"},
	{Name: "matrix.inverse_ns", Unit: "ns", Better: "lower"},

	{Name: "mbr.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "mbr.encode_nodes_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "mbr.helper_us", Unit: "us", Better: "lower"},
	{Name: "mbr.regenerate_us", Unit: "us", Better: "lower"},
	{Name: "mbr.decode_us", Unit: "us", Better: "lower"},
	{Name: "mbr.encode_busy_us_per_put", Unit: "us", Better: "lower"},
	{Name: "mbr.read_busy_us_per_get", Unit: "us", Better: "lower"},
	{Name: "mbr.calls_per_put", Unit: "count", Better: "lower"},
	{Name: "mbr.calls_per_get", Unit: "count", Better: "lower"},
	{Name: "mbr.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "rs.encode_mb_s", Unit: "MB/s", Better: "higher"},

	{Name: "wire.encode_value_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_alias_value_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_clone_value_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_meta_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_meta_ns", Unit: "ns", Better: "lower"},

	{Name: "channet.hop_us", Unit: "us", Better: "lower"},
	{Name: "channet.msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "channet.cpu_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "tcpnet.hop_us", Unit: "us", Better: "lower"},
	{Name: "tcpnet.msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tcpnet.cpu_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "tcpnet.value_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "tcpnet.dropped", Unit: "count", Better: "lower"},
	{Name: "tcpnet.redials", Unit: "count", Better: "lower"},

	{Name: "lds.write_us", Unit: "us", Better: "lower"},
	{Name: "lds.read_settled_us", Unit: "us", Better: "lower"},
	{Name: "lds.offload_settle_us", Unit: "us", Better: "lower"},
	{Name: "lds.msgs_per_put", Unit: "count", Better: "lower"},
	{Name: "lds.msgs_per_get", Unit: "count", Better: "lower"},
	{Name: "lds.l1l2_msgs_per_put", Unit: "count", Better: "lower"},
	{Name: "lds.payload_units_per_put", Unit: "ratio", Better: "lower"},
	{Name: "lds.payload_units_per_get", Unit: "ratio", Better: "lower"},
	{Name: "lds.write_cost_vs_paper", Unit: "ratio", Better: "lower"},
	{Name: "lds.read_cost_vs_paper", Unit: "ratio", Better: "lower"},
	{Name: "lds.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "lds.payload_units_per_op", Unit: "ratio", Better: "lower"},
	{Name: "lds.get_l1_served_share", Unit: "ratio", Better: "higher"},

	{Name: "gateway.route_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.put_overhead_us", Unit: "us", Better: "lower"},
	{Name: "gateway.get_overhead_us", Unit: "us", Better: "lower"},
	{Name: "gateway.put_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.get_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.put_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.get_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.offload_queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "gateway.temp_bytes_max", Unit: "bytes", Better: "lower"},
	{Name: "gateway.stats_mean_put_us", Unit: "us", Better: "lower"},
	{Name: "gateway.stats_mean_get_us", Unit: "us", Better: "lower"},
	{Name: "gateway.new_s", Unit: "s", Better: "lower"},
	{Name: "gateway.ensure_us_per_key", Unit: "us", Better: "lower"},
	{Name: "gateway.preload_us_per_key", Unit: "us", Better: "lower"},
	{Name: "gateway.settle_s", Unit: "s", Better: "lower"},

	{Name: "nodehost.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "nodehost.groups", Unit: "count", Better: "lower"},
	{Name: "nodehost.servers", Unit: "count", Better: "lower"},
	{Name: "catalog.append_us", Unit: "us", Better: "lower"},
	{Name: "catalog.records_per_key", Unit: "count", Better: "lower"},

	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "runtime.cpu_util", Unit: "ratio", Better: "lower"},

	{Name: "model.cpu_explained_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// metric is one measured value on its way to the report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a declared list, so a
// metric that is measured but undeclared (or declared but unmeasured) is a
// programming error caught by the tests rather than a silent gap.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	// extra holds diagnostics printed beside the metrics (window min/max,
	// sample counts) that are not part of the declared set.
	extra []diagnostic
}

type diagnostic struct {
	Name  string
	Value float64
	Unit  string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set files a measured value. A ratio whose base was zero (a window too
// short to complete one operation) is filed as 0 and noted, so the result
// line stays valid JSON.
func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.note(name+".not_finite", 1, "count")
		v = 0
	}
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

func (m *metricSet) note(name string, v float64, unit string) {
	m.extra = append(m.extra, diagnostic{name, v, unit})
}

// missing lists declared metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

func (m *metricSet) json() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metric{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}
