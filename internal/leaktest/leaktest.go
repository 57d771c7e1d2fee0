// Package leaktest is a dependency-free goroutine-leak check for test
// suites, in the spirit of go.uber.org/goleak (which the repo cannot
// vendor). A package opts in with one line:
//
//	func TestMain(m *testing.M) { leaktest.VerifyTestMain(m) }
//
// After the package's tests pass, the checker polls the full goroutine
// dump until only known-benign goroutines remain; anything else after
// the grace period fails the suite with the offending stacks. The
// networked packages (tcpnet, gateway, nodehost) use it so a sender
// loop, accept loop, or scrub scheduler that outlives Close can never
// land silently.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// testingM is the subset of *testing.M the checker needs; an interface
// so the package itself stays importable from non-test code.
type testingM interface {
	Run() int
}

// VerifyTestMain runs the suite and then fails the process if goroutines
// leak. Call it from TestMain; it does not return.
func VerifyTestMain(m testingM) {
	code := m.Run()
	if code == 0 {
		if err := Check(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "leaktest: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check polls until no unexpected goroutines remain or the grace period
// expires. Exported separately so individual tests can assert no-leak at
// a finer grain than the whole suite.
func Check(grace time.Duration) error {
	deadline := time.Now().Add(grace)
	var leaked []string
	for {
		leaked = leakedGoroutines()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		// Leaks settle asynchronously: Close paths unwind reader loops,
		// deadlines fire. Poll rather than sleep once.
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%d goroutine(s) still running after tests:\n\n%s",
		len(leaked), strings.Join(leaked, "\n\n"))
}

// benign are stack substrings of goroutines the test runner itself owns.
var benign = []string{
	"testing.Main(",
	"testing.(*M).Run",
	"testing.runTests",
	"testing.(*T).Run",     // parked subtest parents
	"testing.runFuzzTests", // fuzz runner
	"testing.runFuzzing",
	"os/signal.signal_recv", // signal handling machinery
	"os/signal.loop",
	"runtime.ensureSigM",
	"runtime/trace.Start",
	"leaktest.leakedGoroutines", // this checker
}

// leakedGoroutines returns the stacks of goroutines that are neither the
// caller's nor known-benign.
func leakedGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var leaked []string
stacks:
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" {
			continue
		}
		for _, b := range benign {
			if strings.Contains(g, b) {
				continue stacks
			}
		}
		leaked = append(leaked, g)
	}
	return leaked
}
