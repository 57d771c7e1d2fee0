// Command lds-bench runs the measurements beyond the paper that are not Go
// benchmarks; hotpath and repair also record theirs in
// BENCH_<name>.json in the working directory. The paper's own tables
// (Section V of Konwar et al., PODC 2017) are the root package's
// benchmarks: `go test -run xxx -bench . .`.
//
//	lds-bench -exp all
//	lds-bench -exp rebalance,repair
//	lds-bench -exp hotpath -baseline BENCH_hotpath.baseline.json
//
// Experiments: rebalance, hotpath, repair, all.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/lds-storage/lds/internal/experiments"
	"github.com/lds-storage/lds/internal/lds"
)

// geometries swept by the repair experiment: the paper's regime
// k = Theta(n2), d = Theta(n2) at growing scale.
var geometries = [][4]int{ // n1, n2, f1, f2
	{6, 8, 1, 2},
	{10, 12, 3, 3},
	{20, 24, 5, 6},
	{40, 45, 10, 10},
}

const valueSize = 4096

// modes are the experiments lds-bench runs, in the order it runs them.
var modes = []string{"rebalance", "hotpath", "repair"}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(modes, ",")+",all")
	baseline := flag.String("baseline", "", "hotpath only: baseline JSON to guard the median allocs/op of three runs against (>10% over fails)")
	flag.Parse()
	want, err := parseModes(*expFlag, *baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lds-bench:", err)
		os.Exit(2)
	}

	run := func(name string, fn func() error) {
		if !want[name] {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}
	run("rebalance", rebalance)
	run("hotpath", func() error { return hotPath(*baseline) })
	run("repair", repairBench)
}

// parseModes returns the set of experiments -exp names. An unknown name is
// an error, and so is a -baseline that no hotpath run would check.
func parseModes(exp, baseline string) (map[string]bool, error) {
	want := make(map[string]bool)
	for _, e := range strings.Split(exp, ",") {
		switch e = strings.TrimSpace(e); {
		case e == "all":
			for _, m := range modes {
				want[m] = true
			}
		case slices.Contains(modes, e):
			want[e] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", e, strings.Join(modes, ", "))
		}
	}
	if baseline != "" && !want["hotpath"] {
		return nil, errors.New("-baseline guards the hotpath experiment, which -exp does not select")
	}
	return want, nil
}

// repairBench compares the repair bandwidth of the regenerating helper
// path against the naive decode-reencode fallback, first against the pure
// code at each benchmark geometry, then against a live fleet whose
// anti-entropy pass is forced down each path in turn. It records the rows
// in BENCH_repair.json so EXPERIMENTS.md numbers are reproducible.
func repairBench() error {
	fmt.Println("Repair bandwidth for one lost L2 element: d helper payloads (regenerating)")
	fmt.Println("vs k full elements (naive RS decode-reencode):")
	fmt.Printf("  %-26s %12s %12s %9s\n", "geometry", "regen bytes", "naive bytes", "savings")
	out := struct {
		ValueSize int                          `json:"value_size"`
		Points    []experiments.RepairPoint    `json:"points"`
		Live      experiments.RepairLiveResult `json:"live"`
	}{ValueSize: valueSize}
	for _, g := range geometries {
		p := params(g)
		res, err := experiments.MeasureRepairBandwidth(p, valueSize)
		if err != nil {
			return err
		}
		if res.RegenBytes >= res.NaiveBytes {
			return fmt.Errorf("n1=%d n2=%d: regenerating repair moved %d bytes, not below naive %d",
				p.N1, p.N2, res.RegenBytes, res.NaiveBytes)
		}
		fmt.Printf("  n1=%-3d n2=%-3d k=%-3d d=%-4d %12d %12d %8.2fx\n",
			p.N1, p.N2, p.K, p.D, res.RegenBytes, res.NaiveBytes, res.Savings())
		out.Points = append(out.Points, res)
	}

	live, err := experiments.MeasureRepairLive(params([4]int{6, 8, 1, 2}), valueSize, 4, 3, 3)
	if err != nil {
		return err
	}
	if live.RegenBytes >= live.NaiveBytes {
		return fmt.Errorf("live fleet: regenerating pass moved %d bytes, not below naive %d",
			live.RegenBytes, live.NaiveBytes)
	}
	fmt.Printf("  live fleet n1=%d n2=%d: %d corrupt elements healed, regen %d B vs naive %d B (%.2fx)\n",
		live.Params.N1, live.Params.N2, live.Corrupted, live.RegenBytes, live.NaiveBytes, live.Savings())
	out.Live = live

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_repair.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_repair.json")
	return nil
}

func params(g [4]int) lds.Params {
	p, err := lds.NewParams(g[0], g[1], g[2], g[3])
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func rebalance() error {
	churn, err := experiments.MeasureRingChurn([]int{2, 4, 8, 16}, 10000)
	if err != nil {
		return err
	}
	fmt.Println("Ring churn at S -> S+1 (fraction of 10k keys remapped):")
	fmt.Printf("  %8s %10s %10s\n", "S", "measured", "1/(S+1)")
	for _, c := range churn {
		fmt.Printf("  %8d %10.4f %10.4f\n", c.Shards, c.Moved, c.Ideal)
	}
	fmt.Println()

	p := params(geometries[0])
	res, err := experiments.MeasureMigration(p, 2048, 150, 4)
	if err != nil {
		return err
	}
	fmt.Printf("Client latency on a key under %d live migrations (tau0=tau1=200us, tau2=1ms):\n", res.Migrations)
	fmt.Printf("  %-22s %10s %10s %10s\n", "phase", "mean", "p99", "max")
	row := func(name string, pr experiments.LatencyProfile) {
		fmt.Printf("  %-22s %10v %10v %10v\n", name,
			pr.Mean.Round(10*time.Microsecond), pr.P99.Round(10*time.Microsecond), pr.Max.Round(10*time.Microsecond))
	}
	row("read, baseline", res.BaselineRead)
	row("read, migrating", res.DuringRead)
	row("write, baseline", res.BaselineWrite)
	row("write, migrating", res.DuringWrite)
	return nil
}

// hotPath measures heap bytes and heap objects allocated per operation on
// both gateway backends (process-wide, covering server actors and transport
// goroutines, not just the client call stack) and records the rows in
// BENCH_hotpath.json. With -baseline it measures three times and compares
// each backend's median allocs/op against BENCH_hotpath.baseline.json,
// failing on a >10% regression: one run of unchanged code spreads by about
// that much on tcp.
func hotPath(baseline string) error {
	p := params([4]int{4, 5, 1, 1})
	const (
		valueSize    = 4096
		keys         = 16
		clients      = 8
		opsPerClient = 200
		nodes        = 3
	)
	runs := 1
	if baseline != "" {
		runs = 3
	}
	fmt.Printf("Hot-path allocations per operation (n1=%d n2=%d, %dB values, %d keys,\n", p.N1, p.N2, valueSize, keys)
	fmt.Printf("%d writer+%d reader clients x %d ops, process-wide ReadMemStats deltas):\n", clients, clients, opsPerClient)
	fmt.Printf("  %-10s %10s %12s %12s\n", "backend", "ops/s", "B/op", "allocs/op")
	row := func(pr experiments.HotPathProfile) {
		fmt.Printf("  %-10s %10.0f %12.0f %12.1f\n", pr.Backend, pr.OpsPerSec, pr.BytesPerOp, pr.AllocsPerOp)
	}
	var sims, tcps []experiments.HotPathProfile
	var res *experiments.HotPathResult
	for i := 0; i < runs; i++ {
		r, err := experiments.MeasureHotPath(p, valueSize, keys, clients, opsPerClient, nodes)
		if err != nil {
			return err
		}
		row(r.Sim)
		row(r.TCP)
		res, sims, tcps = r, append(sims, r.Sim), append(tcps, r.TCP)
	}
	median := func(prs []experiments.HotPathProfile) experiments.HotPathProfile {
		sort.Slice(prs, func(i, j int) bool { return prs[i].AllocsPerOp < prs[j].AllocsPerOp })
		return prs[len(prs)/2]
	}
	res.Sim, res.TCP = median(sims), median(tcps)
	if runs > 1 {
		fmt.Printf("  median of %d runs per backend:\n", runs)
		row(res.Sim)
		row(res.TCP)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_hotpath.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_hotpath.json")
	if baseline == "" {
		return nil
	}
	raw, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base experiments.HotPathResult
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baseline, err)
	}
	guard := func(name string, got, limit float64) error {
		max := limit * 1.10
		status := "ok"
		if got > max {
			status = "REGRESSION"
		}
		fmt.Printf("  %s allocs/op: %.1f vs baseline %.1f (limit %.1f) %s\n", name, got, limit, max, status)
		if got > max {
			return fmt.Errorf("%s allocs/op regressed: %.1f > %.1f (baseline %.1f +10%%)", name, got, max, limit)
		}
		return nil
	}
	if err := guard("sim", res.Sim.AllocsPerOp, base.Sim.AllocsPerOp); err != nil {
		return err
	}
	return guard("tcp", res.TCP.AllocsPerOp, base.TCP.AllocsPerOp)
}
