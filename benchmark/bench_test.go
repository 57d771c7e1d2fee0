package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
	"unsafe"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in spec.go")

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables this
// program emits from to each other, in both directions, and to the naming
// rules the manifest's reader enforces.
func TestManifestMatchesTables(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := wantManifest()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; run go test ./benchmark -run TestManifestMatchesTables -update\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
}

// encodeOp folds one drawn operation into a comparable int.
func encodeOp(key int, put bool) int {
	if put {
		return key<<1 | 1
	}
	return key << 1
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		draw := func(seed uint64) (ops []int, values [][]byte) {
			g := newGenerator(w, w.Keys, seed, 0)
			for i := 0; i < 200; i++ {
				key, put := g.op()
				ops = append(ops, encodeOp(key, put))
				if put {
					v, _ := g.value(key)
					values = append(values, v)
				}
			}
			return ops, values
		}
		ops1, values1 := draw(7)
		ops2, values2 := draw(7)
		ops3, values3 := draw(8)
		if !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(values1, values2) {
			t.Errorf("%s: the same seed gave two different sequences", w.Name)
		}
		if reflect.DeepEqual(ops1, ops3) || reflect.DeepEqual(values1, values3) {
			t.Errorf("%s: different seeds gave the same sequence", w.Name)
		}
		// Clients of one run must not mirror each other either.
		other := newGenerator(w, w.Keys, 7, 1)
		same := 0
		for _, op := range ops1 {
			key, put := other.op()
			if put {
				other.value(key)
			}
			if op == encodeOp(key, put) {
				same++
			}
		}
		if same == len(ops1) {
			t.Errorf("%s: two clients of one seed draw the same sequence", w.Name)
		}
	}
}

// TestValuesNeverShareBuffers fails if the generator recycles a buffer: the
// sim transport hands Put values to the servers by reference, so a reused
// buffer would rewrite what the system stores.
func TestValuesNeverShareBuffers(t *testing.T) {
	w := workloads[0]
	g := newGenerator(w, w.Keys, 1, 0)
	const n = 256
	values := make([][]byte, n)
	ids := make([]valueID, n)
	addrs := map[*byte]int{}
	for i := range values {
		values[i], ids[i] = g.value(i % w.Keys)
		if len(values[i]) != w.ValueSize {
			t.Fatalf("value %d has %d bytes, want %d", i, len(values[i]), w.ValueSize)
		}
		p := unsafe.SliceData(values[i])
		if j, dup := addrs[p]; dup {
			t.Fatalf("values %d and %d share a buffer", j, i)
		}
		addrs[p] = i
	}
	// Every earlier value must still verify after all later ones were built.
	for i, v := range values {
		id, err := checkValue(v, i%w.Keys, w.ValueSize)
		if err != nil {
			t.Fatalf("value %d no longer verifies: %v", i, err)
		}
		if id != ids[i] {
			t.Fatalf("value %d reads back as %v, was written as %v", i, id, ids[i])
		}
	}
	// And the check must notice a flipped body byte and a foreign key.
	v := append([]byte(nil), values[0]...)
	v[len(v)-1] ^= 1
	if _, err := checkValue(v, 0, w.ValueSize); err == nil {
		t.Error("checkValue accepted a corrupted body")
	}
	if _, err := checkValue(values[0], 1, w.ValueSize); err == nil {
		t.Error("checkValue accepted a value written to another key")
	}
}

func TestZipfTopKeyMass(t *testing.T) {
	w := workloads[0] // zipf s = 1.2 over 512 keys
	var norm float64
	for k := 1; k <= w.Keys; k++ {
		norm += math.Pow(float64(k), -w.Zipf)
	}
	want := 1 / norm
	g := newGenerator(w, w.Keys, 3, 0)
	const draws = 200_000
	top := 0
	for i := 0; i < draws; i++ {
		if key, _ := g.op(); key == 0 {
			top++
		} else if key < 0 || key >= w.Keys {
			t.Fatalf("key %d outside [0, %d)", key, w.Keys)
		}
	}
	if got := float64(top) / draws; math.Abs(got-want) > 0.01 {
		t.Errorf("top key drew %.4f of the operations, zipf(%.1f) over %d keys predicts %.4f", got, w.Zipf, w.Keys, want)
	}
}

func TestPercentileAndTailGuard(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if v, ok := percentile(samples, 0.50); v != 100 || !ok {
		t.Errorf("p50 of 1..200 = %v (supported %v), want 100 true", v, ok)
	}
	// p95 of 200 samples leaves exactly 10 beyond it: the guard's edge.
	if v, ok := percentile(samples, 0.95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v (supported %v), want 190 true", v, ok)
	}
	if _, ok := percentile(samples[:199], 0.95); ok {
		t.Error("p95 of 199 samples has 9 beyond it and must be flagged")
	}
	if _, ok := percentile(samples, 0.99); ok {
		t.Error("p99 of 200 samples has 2 beyond it and must be flagged")
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of nothing = %v %v", v, ok)
	}
}

func TestWindowMedianAndQuartiles(t *testing.T) {
	st := foldWindows([]float64{5, 1, 9, 3, 7})
	if st.med != 5 || st.lo != 1 || st.hi != 9 {
		t.Errorf("foldWindows = %+v, want median 5 min 1 max 9", st)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v, want 2.5", m)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
	// -> [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) -> [0.5, 2.0, 3.5]
	if q1, _, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v %v, want 0.5 3.5", q1, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}

	// foldLoad: ops land in the window they ended in and rates are per
	// window; the reported figure is the median window.
	t0 := time.Now()
	rec := &recorder{}
	counts := []int{30, 10, 20}
	for win, n := range counts {
		for i := 0; i < n; i++ {
			end := t0.Add(time.Duration(win)*time.Second + time.Duration(i)*time.Millisecond)
			rec.add(opRecord{put: i%2 == 0, start: end.Add(-time.Duration(win+1) * time.Millisecond), end: end, window: win})
		}
	}
	rec.add(opRecord{put: true, start: t0, end: t0.Add(time.Hour), window: -1}) // outside every window
	w := foldLoad([]*recorder{rec}, len(counts), time.Second)
	if w.opsPerS.med != 20 || w.opsPerS.lo != 10 || w.opsPerS.hi != 30 {
		t.Errorf("ops/s windows = %+v, want median 20 min 10 max 30", w.opsPerS)
	}
	if w.putP50.med != 2 || w.getP50.med != 2 {
		t.Errorf("p50 = %v / %v ms, want the median window's 2 ms", w.putP50.med, w.getP50.med)
	}
	if w.minPuts != 5 || w.minGets != 5 || w.unsupported != 6 {
		t.Errorf("sample counts %d/%d, unsupported %d; want 5/5 and all 6 p95 flagged", w.minPuts, w.minGets, w.unsupported)
	}
}

// TestQuickSmoke runs all four workloads end to end at smoke size, traced
// and untraced, and checks that each run measures exactly the declared
// metrics and verifies clean.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		cfg := runConfig{w: w, seed: 1, shape: quickShape()}
		for _, run := range []func(runConfig) *result{runUntraced, runTraced} {
			res := run(cfg)
			if !res.correct() {
				t.Errorf("%s traced=%v: attempted %d failed %d err %v problems %v", w.Name, res.Traced, res.attempted, res.failed, res.Err, res.problems)
			}
			if miss := res.Metrics.missing(); len(miss) > 0 {
				t.Errorf("%s traced=%v: declared but not measured: %v", w.Name, res.Traced, miss)
			}
			var out bytes.Buffer
			printResult(&out, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.Name, err)
			}
			if len(line.Metrics) != len(res.Metrics.defs) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.Name, res.Traced, len(line.Metrics), len(res.Metrics.defs))
			}
		}
	}
}

// TestFaultsAreCaught breaks the tcp workload on purpose: corrupt stored
// elements must fail verification, and blocked handlers must end the run
// at its deadlines with a failed-run report instead of hanging it.
func TestFaultsAreCaught(t *testing.T) {
	w, _ := findWorkload("tcp-mixed-1k")
	res := runUntraced(runConfig{w: w, seed: 1, shape: quickShape(), fault: faultCorrupt})
	if res.correct() || res.failed == 0 {
		t.Errorf("corrupt: run reads as clean (failed %d, err %v)", res.failed, res.Err)
	}

	sh := quickShape()
	sh.opTimeout, sh.closeTimeout = 100*time.Millisecond, 300*time.Millisecond
	start := time.Now()
	res = runUntraced(runConfig{w: w, seed: 1, shape: sh, fault: faultWedge})
	if res.correct() || res.failed == 0 || res.Err == nil {
		t.Errorf("wedge: run reads as clean (failed %d, err %v)", res.failed, res.Err)
	}
	if el := time.Since(start); el > time.Minute {
		t.Errorf("wedge: run took %v to give up", el)
	}
	var out bytes.Buffer
	printResult(&out, res)
	if !strings.Contains(out.String(), "FAILED RUN") || !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("wedge: report does not mark the run failed:\n%s", out.String())
	}
}
