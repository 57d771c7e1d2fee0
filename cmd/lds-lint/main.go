// Command lds-lint runs the repository's invariant analyzers
// (internal/analysis) over a set of packages and exits non-zero when any
// invariant is violated. CI runs it over ./... as a required job.
//
// Usage:
//
//	lds-lint [-analyzers locksend,...] [-list] [-github] [-strict] [-timings] [packages]
//
// With no package arguments it analyzes ./... relative to the current
// directory. Diagnostics print one per line as file:line:col: analyzer:
// message, the format editors understand; -github additionally emits
// ::error workflow annotations so findings surface inline on pull
// requests.
//
// There is no suppression comment: a finding is fixed, or the analyzer
// is changed. Packages the loader cannot analyze are reported as
// warnings — or, under -strict (CI), as a hard error — so the lint job
// cannot go green by analyzing nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/lds-storage/lds/internal/analysis"
	"github.com/lds-storage/lds/internal/analysis/lint"
)

// githubEscape escapes a message for a workflow command value.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// relPath makes a diagnostic path workspace-relative: GitHub anchors
// ::error annotations to paths relative to the repository root, which
// is where CI invokes lds-lint.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	rel, err := filepath.Rel(wd, p)
	if err != nil || strings.HasPrefix(rel, "..") {
		return p
	}
	return filepath.ToSlash(rel)
}

func main() {
	var (
		only    = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list    = flag.Bool("list", false, "list the available analyzers and exit")
		github  = flag.Bool("github", false, "emit GitHub Actions ::error annotations for findings")
		strict  = flag.Bool("strict", false, "treat skipped (unanalyzable) packages as errors, not warnings")
		timings = flag.Bool("timings", false, "print per-analyzer wall time in the run summary")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lds-lint [-analyzers a,b] [-list] [-github] [-strict] [-timings] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the lds invariant analyzers over the given packages (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	analyzers := all
	if *only != "" {
		byName := make(map[string]*lint.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "lds-lint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, skips, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lds-lint: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "lds-lint: no analyzable packages matched (of %d skipped)\n", len(skips))
		os.Exit(2)
	}
	diags, stats, err := lint.RunWithStats(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lds-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if *github {
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=lds-lint %s::%s\n",
				relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, githubEscape(d.Message))
		}
		for _, s := range skips {
			fmt.Printf("::warning title=lds-lint skipped package::%s: %s\n",
				s.Path, githubEscape(s.Reason))
		}
	}

	// Run summary on stderr: what ran, and what was not analyzed at all.
	fmt.Fprintf(os.Stderr, "lds-lint: %d package(s), %d analyzer(s), %d finding(s), %d skipped\n",
		len(pkgs), len(analyzers), len(diags), len(skips))
	for _, s := range skips {
		fmt.Fprintf(os.Stderr, "lds-lint: warning: skipped %s: %s\n", s.Path, s.Reason)
	}
	if *timings {
		for _, name := range stats.Order {
			fmt.Fprintf(os.Stderr, "lds-lint: timing %-12s %8.1fms\n",
				name, float64(stats.PerAnalyzer[name])/float64(time.Millisecond))
		}
	}

	if *strict && len(skips) > 0 {
		fmt.Fprintf(os.Stderr, "lds-lint: -strict: %d package(s) were not analyzed\n", len(skips))
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lds-lint: %d invariant violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
