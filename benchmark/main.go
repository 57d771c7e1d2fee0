// Command lds-benchmark is the repository's reference benchmark: four
// gateway workloads, six end-to-end metrics, and a traced run that
// attributes them to layers. README.md in this directory is the manual;
// BENCHMARK.json at the repository root declares every name used here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all (one child process per workload)")
		seed    = flag.Uint64("seed", 1, "seed of the generated keys, operations and values")
		seconds = flag.Int("seconds", runSeconds, "length of the measured stretch (five windows)")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke-test size: 8 keys, 0.2 s windows")
		out     = flag.String("out", "", "traced run: directory to write <workload>.trace.json into")
		flt     = flag.String("fault", "", "break the run on purpose: corrupt or wedge (tcp workload)")
		repeat  = flag.Int("repeat", 1, "with -workload all: run this many sets, seeds seed, seed+1, ...")
		check   = flag.Bool("check", false, "with -repeat: fail if an end-to-end metric's spread exceeds its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runSets(*seed, *seconds, *trace, *quick, *repeat, *check))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "lds-benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, shape: productShape(*seconds), fault: *flt, out: *out}
	if *quick {
		cfg.shape = quickShape()
	}
	var res *result
	if *trace == 1 {
		res = runTraced(cfg)
	} else {
		res = runUntraced(cfg)
	}
	printResult(os.Stdout, res)
	if !res.correct() {
		os.Exit(1)
	}
}

// resultLine is the machine-readable last line of a run's output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the run as "workload metric value unit" lines (with
// "#" lines for context and diagnostics) and ends with the JSON line.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "# %s seed=%d traced=%v nproc=%d gomaxprocs=%d %s commit=%s\n",
		res.Workload, res.Seed, res.Traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintf(w, "# link delay is zero: latency here is processor and scheduler time, not network time\n")
	for _, d := range res.Metrics.defs {
		if v, ok := res.Metrics.values[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, d.Name, v, d.Unit)
		}
	}
	for _, d := range res.Metrics.extra {
		fmt.Fprintf(w, "# %s %s %.6g %s\n", res.Workload, d.Name, d.Value, d.Unit)
	}
	fmt.Fprintf(w, "# %s attempted=%d failed=%d\n", res.Workload, res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintf(w, "# %s problem: %s\n", res.Workload, p)
	}
	if res.Err != nil {
		fmt.Fprintf(w, "# %s FAILED RUN: %v\n", res.Workload, res.Err)
	}
	if miss := res.Metrics.missing(); len(miss) > 0 {
		sort.Strings(miss)
		fmt.Fprintf(w, "# %s unmeasured: %v\n", res.Workload, miss)
	}
	line := resultLine{
		Correct:   res.correct(),
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   res.Metrics.json(),
	}
	if res.Err != nil && line.Failed == 0 {
		line.Failed = 1 // a run that could not finish never reads as clean
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
