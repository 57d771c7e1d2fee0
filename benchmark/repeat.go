package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSets runs every workload `repeat` times, one child process per run so
// that each starts from fresh process state (peak_rss_mb is per process),
// and prints each metric's median, quartiles and spread over the sets. It
// returns the exit code: non-zero if a run failed or, with check, if an
// end-to-end metric's spread exceeds its bound.
func runSets(seed uint64, seconds, trace int, quick bool, repeat int, check bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lds-benchmark:", err)
		return 1
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	code := 0
	for set := 0; set < repeat; set++ {
		for _, w := range workloads {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatUint(seed+uint64(set), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace),
			}
			if quick {
				args = append(args, "-quick")
			}
			line, err := runChild(self, args)
			if err != nil {
				fmt.Printf("# %s set %d: %v\n", w.Name, set, err)
				code = 1
				continue
			}
			if !line.Correct {
				code = 1
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, m := range line.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	if repeat < 2 {
		return code
	}
	fmt.Printf("# spread over %d sets: workload metric median q1 q3 spread [bound]\n", repeat)
	for _, w := range workloads {
		for _, d := range defs {
			vs := values[w.Name][d.Name]
			if len(vs) < 2 {
				continue
			}
			q1, _, q3 := quartiles(vs)
			sp := spread(vs)
			verdict := ""
			if trace == 0 {
				verdict = fmt.Sprintf(" bound %.3g", d.Bound)
				if sp > d.Bound && d.Name != "setup_s" {
					verdict += " EXCEEDED"
					if check {
						code = 1
					}
				}
			}
			fmt.Printf("%s %s %.6g %.6g %.6g %.4f%s\n", w.Name, d.Name, median(vs), q1, q3, sp, verdict)
		}
	}
	return code
}

// runChild runs one benchmark process, passes its report through and
// returns its result line.
func runChild(self string, args []string) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Printf("%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("no result line (%v): %v", runErr, err)
	}
	fmt.Printf("%s\n", last)
	return line, nil
}
