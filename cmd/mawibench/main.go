// Command mawibench is the repository's benchmark: one program that takes a
// trace from pcap bytes to a served labeling along each path users take —
// the batch CLI, the sliding-window stream engine, and the mawilabd daemon
// under cache-miss uploads and under a read-heavy mix — verifies every
// output against pinned digests, and reports end-to-end metrics with tracing
// off and a per-layer ledger from a separate traced run. Every number is
// taken from outside the program: timers around public functions, the
// Pipeline.Observe hook, /v1/jobs timestamps, /metrics deltas and the daemon
// child's rusage. README.md beside this file is the metric dictionary.
//
// Report mode runs every workload and prints every metric by name:
//
//	go run ./cmd/mawibench [-duration 30s] [-traced-duration 8s] [-repeat N]
//
// Contract mode is what BENCHMARK.json's command invokes — one workload, one
// JSON object on the last line of standard output:
//
//	go run ./cmd/mawibench -workload batch_day -seed 7 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRuns is how often set-up runs where setup_s is judged against its
// bound — an untraced contract run, a -repeat — so that it is a median.
const setupRuns = 5

// env stamps every output with what the numbers were taken on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Duration   string `json:"duration"`
	Traced     string `json:"traced_duration"`
	Clients    int    `json:"clients"`
	StoreDir   string `json:"store_dir"`
	StoreFS    string `json:"store_fs"`
}

func stamp(cfg config) env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		GoVersion: runtime.Version(), Commit: "unknown", Seed: cfg.seed,
		Duration: cfg.duration.String(), Traced: cfg.traced.String(), Clients: cfg.clients,
		StoreDir: cfg.stores, StoreFS: fsType(cfg.stores),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// moduleRoot walks up from the working directory to the mawilab module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module mawilab\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the mawilab module: the serve workloads build ./cmd/mawilabd from it")
		}
		dir = parent
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mawibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only      = fs.String("workload", "", "comma-separated workloads to run (default all); contract mode takes exactly one")
		seed      = fs.Int64("seed", 1, "seed of day order, upload order and op streams")
		duration  = fs.Duration("duration", 30*time.Second, "measured time per workload, tracing off")
		traced    = fs.Duration("traced-duration", 8*time.Second, "traced time per workload")
		repeat    = fs.Int("repeat", 1, "run the whole set this many times and check each end-to-end metric's spread against its bound")
		update    = fs.Bool("update-expected", false, "recompute the pinned references and rewrite cmd/mawibench/expected.json")
		out       = fs.String("out", ".", "directory for mawibench.json and the span files")
		scratch   = fs.String("scratch", "", "directory for the daemon binary and label stores (default: the system temp directory, stores on /dev/shm when writable)")
		seconds   = fs.Int("seconds", 0, "contract mode: measure one workload for this many seconds and print one JSON object")
		traceMode = fs.Int("trace", 0, "contract mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mawibench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	if *update {
		if err := updateExpected(ctx, root); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "rewrote cmd/mawibench/expected.json")
		return 0
	}
	exp, err := loadExpected()
	if err != nil {
		return fail(err)
	}
	selected, err := selectWorkloads(*only)
	if err != nil {
		return fail(err)
	}
	work, stores, err := scratchDirs(*scratch)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	defer os.RemoveAll(stores)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	nproc := runtime.GOMAXPROCS(0)
	cfg := config{
		seed: *seed, duration: *duration, traced: *traced, setups: 1,
		nproc: nproc, clients: min(2, nproc),
		root: root, work: work, stores: stores, out: *out, exp: exp,
	}

	if (*seconds > 0 && *traceMode == 0) || *repeat > 1 {
		cfg.setups = setupRuns
	}
	if *seconds > 0 {
		if len(selected) != 1 {
			return fail(fmt.Errorf("contract mode needs exactly one -workload"))
		}
		return contract(ctx, cfg, selected[0], *seconds, *traceMode, stdout, stderr)
	}
	return report(ctx, cfg, selected, *repeat, stdout, stderr)
}

func selectWorkloads(only string) ([]workload, error) {
	if only == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(only, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// contractMetric and contractLine are the last line of standard output in
// contract mode.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contract runs one workload the way BENCHMARK.json's command asks. With
// trace 0 the whole time is measured untraced; with trace 1 half the time is
// an untraced reference (the overhead and ratio metrics need one) and half
// is traced.
func contract(ctx context.Context, cfg config, w workload, seconds, trace int, stdout, stderr io.Writer) int {
	cfg.duration, cfg.traced = time.Duration(seconds)*time.Second, 0
	if trace == 1 {
		cfg.duration /= 2
		cfg.traced = cfg.duration
	}
	fmt.Fprintf(stderr, "mawibench: %s %+v\n", w.name, stamp(cfg))
	res, err := w.run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mawibench:", err)
		return 1
	}
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "mawibench: failed op:", e)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(stderr, "mawibench: note:", n)
	}
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Ops, Failed: res.Failed, Metrics: contractMetrics(res, trace)}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "mawibench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// contractMetrics selects what a contract run prints: every gated end-to-end
// metric, or every per-layer metric — 0 for those another workload measures.
func contractMetrics(res *result, trace int) map[string]contractMetric {
	m := make(map[string]contractMetric)
	if trace == 1 {
		for _, d := range perLayer {
			m[d.Name] = contractMetric{res.Layer[d.Name], d.Unit}
		}
		return m
	}
	for _, d := range gated {
		m[d.Name] = contractMetric{res.gatedValue(d.Name), d.Unit}
	}
	return m
}

func (r *result) gatedValue(name string) float64 {
	switch name {
	case "setup_s":
		return r.SetupS
	case "op_s":
		return r.OpS
	default:
		return r.OpsPerS
	}
}

// reportFile is mawibench.json.
type reportFile struct {
	Env     env         `json:"env"`
	Runs    [][]*result `json:"runs"` // one slice of workload results per repeat
	Spreads []spreadRow `json:"spreads,omitempty"`
}

// spreadRow is one line of the -repeat table.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Median   float64 `json:"median"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	Gated    bool    `json:"gated"`
	Within   bool    `json:"within"`
}

// report runs the selected workloads `repeat` times, prints every metric by
// name with its unit and writes mawibench.json. It fails when an op failed,
// or when a gated metric's spread over the repeats exceeds its bound.
func report(ctx context.Context, cfg config, selected []workload, repeat int, stdout, stderr io.Writer) int {
	file := reportFile{Env: stamp(cfg)}
	fmt.Fprintf(stdout, "mawibench %+v\n", file.Env)
	failed := false
	for i := 0; i < max(repeat, 1); i++ {
		var results []*result
		for _, w := range selected {
			res, err := w.run(ctx, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "mawibench:", err)
				return 1
			}
			printResult(stdout, res)
			failed = failed || res.Failed > 0
			results = append(results, res)
		}
		file.Runs = append(file.Runs, results)
	}
	if repeat > 1 {
		file.Spreads = spreads(file.Runs)
		fmt.Fprintf(stdout, "\nspread over %d runs (interquartile distance ÷ median) against each bound:\n", repeat)
		for _, row := range file.Spreads {
			verdict := "ok"
			switch {
			case !row.Within && row.Gated:
				verdict, failed = "EXCEEDS BOUND", true
			case !row.Within:
				verdict = "exceeds bound (diagnostic, not gated)"
			}
			fmt.Fprintf(stdout, "  %-15s %-22s median %-12.6g spread %6.3f  bound %.2f  %s\n", row.Workload, row.Metric, row.Median, row.Spread, row.Bound, verdict)
		}
	}
	data, err := json.MarshalIndent(&file, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.out, "mawibench.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mawibench:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// spreads computes, per workload, the spread of every gated metric and of
// every end-to-end metric under its own name.
func spreads(runs [][]*result) []spreadRow {
	var rows []spreadRow
	for wi := range runs[0] {
		name := runs[0][wi].Workload
		row := func(d metricDef, gatedMetric bool, value func(*result) (float64, bool)) {
			var values []float64
			for _, run := range runs {
				if v, ok := value(run[wi]); ok {
					values = append(values, v)
				}
			}
			if len(values) < 2 {
				return
			}
			s := spread(values)
			rows = append(rows, spreadRow{name, d.Name, median(values), s, d.Bound, gatedMetric, s <= d.Bound})
		}
		for _, d := range gated {
			row(d, true, func(r *result) (float64, bool) { return r.gatedValue(d.Name), true })
		}
		for _, d := range named {
			row(d, false, func(r *result) (float64, bool) { v, ok := r.Named[d.Name]; return v, ok })
		}
	}
	return rows
}

// printResult prints one workload's metrics, one `workload name value unit`
// line each, in dictionary order.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n%s: ops=%d failed=%d\n", res.Workload, res.Ops, res.Failed)
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(w, "  %-15s %-30s %14.6g %s\n", res.Workload, name, v, unit)
	}
	for _, d := range gated {
		line(d.Name, res.gatedValue(d.Name), d.Unit)
	}
	for _, d := range named {
		if v, ok := res.Named[d.Name]; ok {
			line(d.Name, v, d.Unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := res.Layer[d.Name]; ok {
			if _, both := res.Named[d.Name]; !both {
				line(d.Name, v, d.Unit)
			}
		}
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := res.Samples[k]
		fmt.Fprintf(w, "  %-15s samples %-22s n=%d median=%.6g", res.Workload, k, s.N, s.Median)
		if s.TailQ > 0 {
			fmt.Fprintf(w, " p%g=%.6g", s.TailQ*100, s.Tail)
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED OP: %s\n", e)
	}
}
