package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTheDictionary keeps BENCHMARK.json, the tables in
// metrics.go and README.md in one spelling, inside the contract's limits.
func TestBenchmarkJSONMatchesTheDictionary(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program (or their why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gated in the program", len(b.EndToEnd), len(gated))
	}
	for i, m := range b.EndToEnd {
		use(m.Name)
		if d := gated[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unit.MatchString(m.Unit) {
			t.Errorf("%s: bound %v or unit %q outside the contract", m.Name, m.Bound, m.Unit)
		}
	}
	if d := gated[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("the contract wants setup_s in s, lower is better; got %+v", d)
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (128 at most)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		use(m.Name)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q outside the contract", m.Name, m.Unit, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	for _, arg := range b.Command[1:] {
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, b.Paths[0]+"/") {
			t.Errorf("command names %q, outside paths %v", arg, b.Paths)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, defs := range [][]metricDef{gated, named, perLayer} {
		for _, d := range defs {
			if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
				t.Errorf("README.md does not define `%s`", d.Name)
			}
		}
	}
}

// TestSmoke runs every workload for a second, traced for another, exactly as
// `go run ./cmd/mawibench` does, and checks that each metric of the
// dictionary is measured by exactly one workload, that no op failed, and
// that what a contract run would print has exactly BENCHMARK.json's names.
// The serve workloads build and start the real daemon; -short skips them.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	args := []string{"-duration", "1s", "-traced-duration", "1s", "-out", out, "-scratch", t.TempDir()}
	if testing.Short() {
		args = append(args, "-workload", "batch_day,stream_sliding")
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(out, "mawibench.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file reportFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Env.NProc < 1 || file.Env.GoVersion == "" || file.Env.StoreFS == "" || file.Env.Seed != 1 {
		t.Errorf("environment stamp incomplete: %+v", file.Env)
	}
	b := loadBenchmarkJSON(t)

	measuredBy := make(map[string][]string)
	for _, res := range file.Runs[0] {
		if res.Ops == 0 || res.Failed != 0 {
			t.Errorf("%s: ops=%d failed=%d %v", res.Workload, res.Ops, res.Failed, res.Errors)
		}
		if res.SetupS <= 0 || res.OpS <= 0 || res.OpsPerS <= 0 {
			t.Errorf("%s: a gated metric is not positive: %+v", res.Workload, res)
		}
		for n := range res.Named {
			if _, ok := lookup(named, n); !ok {
				t.Errorf("%s reports end-to-end metric %q, which the dictionary does not have", res.Workload, n)
			}
			measuredBy[n] = append(measuredBy[n], res.Workload)
		}
		for n := range res.Layer {
			if _, ok := lookup(perLayer, n); !ok {
				t.Errorf("%s reports per-layer metric %q, which the dictionary does not have", res.Workload, n)
			}
			if _, both := res.Named[n]; !both {
				measuredBy[n] = append(measuredBy[n], res.Workload)
			}
		}
		// Every line of the report names its workload, so a metric printed
		// once per workload that measures it appears exactly once here.
		for n := range res.Layer {
			if c := strings.Count(stdout.String(), fmt.Sprintf("  %-15s %-30s ", res.Workload, n)); c != 1 {
				t.Errorf("%s %s printed %d times", res.Workload, n, c)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "mawibench-trace-"+res.Workload+".json")); err != nil {
			t.Errorf("span file: %v", err)
		}

		for trace, want := range [][]string{names(b, 0), names(b, 1)} {
			got := contractMetrics(res, trace)
			var keys []string
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, " ") != strings.Join(want, " ") {
				t.Errorf("%s -trace %d would print %v, BENCHMARK.json lists %v", res.Workload, trace, keys, want)
			}
		}
	}
	if testing.Short() {
		return
	}
	// wire.csv_s is a layer of two paths: the batch CLI and the daemon's job.
	shared := map[string]int{"wire.csv_s": 2}
	for _, defs := range [][]metricDef{named, perLayer} {
		for _, d := range defs {
			want := 1
			if n, ok := shared[d.Name]; ok {
				want = n
			}
			if got := measuredBy[d.Name]; len(got) != want {
				t.Errorf("%s is measured by %v, want %d workload(s)", d.Name, got, want)
			}
		}
	}
}

// lookup finds a definition by name.
func lookup(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// names lists BENCHMARK.json's end-to-end (trace 0) or per-layer (trace 1)
// metric names, sorted.
func names(b benchmarkJSON, trace int) []string {
	var out []string
	if trace == 0 {
		for _, m := range b.EndToEnd {
			out = append(out, m.Name)
		}
	} else {
		for _, m := range b.PerLayer {
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TestContractMode runs the cheapest workload the way the driver does and
// checks the last line of standard output against the contract.
func TestContractMode(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "batch_day", "--seed", "5", "--seconds", "1", "--trace", trace, "-out", t.TempDir(), "-scratch", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if len(line) != 4 {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var parsed contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
			t.Errorf("trace %s: %+v", trace, parsed)
		}
		for n, m := range parsed.Metrics {
			if trace == "0" && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", n, m.Value)
			}
		}
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nonesuch"},
		{"-seconds", "1"}, // contract mode without exactly one workload
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-scratch", t.TempDir(), "-out", t.TempDir()), &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) succeeded", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed a result: %s", args, stdout.String())
		}
	}
}

func TestDaemonThatNeverAnnouncesIsAnError(t *testing.T) {
	if _, err := startDaemon(context.Background(), "/bin/true", t.TempDir()); err == nil {
		t.Error("a child that prints no address was accepted as a daemon")
	}
}

func TestScratchAndFilesystem(t *testing.T) {
	scratch := filepath.Join(t.TempDir(), "made", "on", "demand")
	work, stores, err := scratchDirs(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(work, scratch) || stores != work {
		t.Errorf("with -scratch everything stays under it: work=%s stores=%s", work, stores)
	}
	if got := fsType("/proc/self"); got != "proc" {
		t.Errorf("fsType(/proc/self) = %q", got)
	}
}
