// Command benchjson converts `go test -bench` text output (read on stdin)
// into a JSON array of benchmark records, one per result line. CI pipes the
// benchmark smoke run through it and uploads the result as BENCH_ci.json so
// a perf trajectory accumulates across commits.
//
// Usage:
//
//	go test -run '^$' -bench 'PipelineDay' -benchtime=1x | benchjson > BENCH_ci.json
//
// It is also the CI benchmark-regression gate:
//
//	benchjson -compare BENCH_baseline.json BENCH_ci.json -threshold 0.25 -alloc-threshold 1.0
//
// -compare compares two bench JSON files and exits non-zero when any benchmark present
// in both regresses — new ns/op exceeds old by more than the threshold
// fraction (default 0.25) — or when a benchmark in the new run has no
// baseline entry at all: an ungated benchmark is an untracked perf path, so
// adding a bench to BENCH_PATTERN requires refreshing the baseline in the
// same commit (`make bench-baseline`). Benchmarks present only in the
// baseline warn but never fail, so retiring a bench needs no simultaneous
// refresh. When both records carry an allocs/op metric it is gated too,
// against the looser -alloc-threshold fraction (default 1.0, i.e. allowed to
// double): allocation counts are deterministic enough to track but step with
// implementation detail, so the gate catches order-of-magnitude leaks, not
// single extra allocations.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Record is one benchmark result line.
type Record struct {
	// Name is the benchmark name including sub-bench path and the -N
	// GOMAXPROCS suffix, e.g. "BenchmarkPipelineDay/workers=4-8".
	Name string `json:"name"`
	// Iterations is b.N for the run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op measurement.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every other reported unit (custom b.ReportMetric
	// values, B/op, allocs/op, ...), keyed by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment injected, returning the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	oldPath, newPath, threshold, allocThreshold, err := parseArgs(args)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}
	if oldPath != "" {
		regressions, tracked, missing, err := compareFiles(stdout, oldPath, newPath, threshold, allocThreshold)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 2
		}
		if tracked == 0 {
			// A gate that tracks nothing is a gate that can never fail —
			// misnamed baseline entries must be loud, not green.
			fmt.Fprintf(stderr, "benchjson: no benchmark appears in both %s and %s; the gate would be vacuous\n", oldPath, newPath)
			return 2
		}
		failed := false
		if regressions > 0 {
			fmt.Fprintf(stderr, "benchjson: %d benchmark(s) regressed past %.0f%%\n", regressions, threshold*100)
			failed = true
		}
		if missing > 0 {
			fmt.Fprintf(stderr, "benchjson: %d benchmark(s) missing from %s; refresh it with `make bench-baseline`\n", missing, oldPath)
			failed = true
		}
		if failed {
			return 1
		}
		return 0
	}
	if err := convert(stdin, stdout); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	return 0
}

// parseArgs hand-parses the flags so `-compare old.json new.json` can take
// its two file operands directly, with -threshold / -alloc-threshold
// anywhere on the line.
func parseArgs(args []string) (oldPath, newPath string, threshold, allocThreshold float64, err error) {
	threshold = 0.25
	allocThreshold = 1.0
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-compare", "--compare":
			if i+2 >= len(args) {
				return "", "", 0, 0, fmt.Errorf("-compare needs two files: old.json new.json")
			}
			oldPath, newPath = args[i+1], args[i+2]
			i += 2
		case "-threshold", "--threshold":
			if i+1 >= len(args) {
				return "", "", 0, 0, fmt.Errorf("-threshold needs a value")
			}
			threshold, err = strconv.ParseFloat(args[i+1], 64)
			if err != nil || threshold < 0 {
				return "", "", 0, 0, fmt.Errorf("bad -threshold %q", args[i+1])
			}
			i++
		case "-alloc-threshold", "--alloc-threshold":
			if i+1 >= len(args) {
				return "", "", 0, 0, fmt.Errorf("-alloc-threshold needs a value")
			}
			allocThreshold, err = strconv.ParseFloat(args[i+1], 64)
			if err != nil || allocThreshold < 0 {
				return "", "", 0, 0, fmt.Errorf("bad -alloc-threshold %q", args[i+1])
			}
			i++
		default:
			return "", "", 0, 0, fmt.Errorf("unknown argument %q", args[i])
		}
	}
	if len(args) > 0 && oldPath == "" {
		// A threshold flag alone would silently fall through to convert mode
		// and block on stdin with the threshold dropped.
		return "", "", 0, 0, fmt.Errorf("threshold flags are only meaningful with -compare old.json new.json")
	}
	return oldPath, newPath, threshold, allocThreshold, nil
}

// convert reads bench text from r and writes the JSON records to w.
func convert(r io.Reader, w io.Writer) error {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if rec, ok := parseLine(sc.Text()); ok {
			out = append(out, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading input: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// parseLine decodes one "Benchmark<Name>-P  N  v1 unit1  v2 unit2 ..." line.
func parseLine(line string) (Record, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Record{}, false
	}
	fields := strings.Fields(line)
	// Name, iterations, and at least one (value, unit) pair.
	if len(fields) < 4 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			rec.NsPerOp = v
			continue
		}
		if rec.Metrics == nil {
			rec.Metrics = make(map[string]float64)
		}
		rec.Metrics[unit] = v
	}
	return rec, true
}

// compareFiles loads two BENCH json files and prints a comparison table to
// w, returning how many benchmarks regressed past the threshold, how many
// were tracked (present in both files), and how many new-run benchmarks have
// no baseline entry.
func compareFiles(w io.Writer, oldPath, newPath string, threshold, allocThreshold float64) (regressions, tracked, missing int, err error) {
	oldRecs, err := loadRecords(oldPath)
	if err != nil {
		return 0, 0, 0, err
	}
	newRecs, err := loadRecords(newPath)
	if err != nil {
		return 0, 0, 0, err
	}
	regressions, tracked, missing = compare(w, oldRecs, newRecs, threshold, allocThreshold)
	return regressions, tracked, missing, nil
}

func loadRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// normalizeName strips the trailing "-<GOMAXPROCS>" suffix the testing
// package appends to benchmark names on multi-core machines (there is none
// when GOMAXPROCS is 1). The gate compares runs across machines with
// different core counts — a committed baseline vs a CI runner — so names
// must be keyed without it or nothing would ever match.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// compare reports each benchmark's ns/op ratio new/old and returns the
// number of regressions — tracked (= present in both files, keyed by their
// normalized name) benchmarks whose new ns/op exceeds old by more than the
// threshold fraction — along with the tracked count itself, so callers can
// detect a vacuous comparison, and the count of new-run benchmarks missing
// from the baseline, which fail the gate: a benchmark outside the baseline
// is an untracked perf path, so landing one requires a `make bench-baseline`
// refresh in the same commit. A baseline of 0 ns/op can't regress. Order
// follows the old file, so gate output is stable across runs.
//
// When a benchmark carries an allocs/op metric in both files and the
// baseline is nonzero, it is gated the same way against allocThreshold — a
// deliberately looser bar than ns/op, catching allocation-count blowups
// (a dropped pool, a per-packet allocation) without flaking on single-digit
// drift.
func compare(w io.Writer, oldRecs, newRecs []Record, threshold, allocThreshold float64) (regressions, tracked, missing int) {
	newBy := make(map[string]Record, len(newRecs))
	for _, r := range newRecs {
		newBy[normalizeName(r.Name)] = r
	}
	seen := make(map[string]bool, len(oldRecs))
	for _, o := range oldRecs {
		name := normalizeName(o.Name)
		seen[name] = true
		n, ok := newBy[name]
		if !ok {
			// Explicitly a warning, never a failure: a benchmark present in
			// the baseline but missing from the new run usually means it was
			// retired or renamed, and failing here would force a baseline
			// refresh in the same commit. But it must be loud — a silently
			// vanished benchmark is an untracked perf path.
			fmt.Fprintf(w, "%-60s WARNING: baseline only — missing from new run (retired or renamed?); not gated\n", name)
			continue
		}
		tracked++
		if o.NsPerOp == 0 {
			fmt.Fprintf(w, "%-60s baseline 0 ns/op, skipped\n", name)
			continue
		}
		ratio := n.NsPerOp / o.NsPerOp
		verdict := "ok"
		if ratio > 1+threshold {
			verdict = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(w, "%-60s %12.0f -> %12.0f ns/op  (%.2fx)  %s\n",
			name, o.NsPerOp, n.NsPerOp, ratio, verdict)
		oa, oldHas := o.Metrics["allocs/op"]
		na, newHas := n.Metrics["allocs/op"]
		if oldHas && newHas && oa > 0 {
			aratio := na / oa
			averdict := "ok"
			if aratio > 1+allocThreshold {
				averdict = "REGRESSED"
				regressions++
			}
			fmt.Fprintf(w, "%-60s %12.0f -> %12.0f allocs/op  (%.2fx)  %s\n",
				name, oa, na, aratio, averdict)
		}
	}
	for _, n := range newRecs {
		if !seen[normalizeName(n.Name)] {
			// A failure, unlike the baseline-only case above: this benchmark
			// runs in CI right now with nothing to gate it against, and a
			// perf path that silently skips the gate defeats its purpose.
			fmt.Fprintf(w, "%-60s ERROR: missing from baseline — run `make bench-baseline`\n", normalizeName(n.Name))
			missing++
		}
	}
	return regressions, tracked, missing
}
