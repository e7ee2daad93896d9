package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRecs(t *testing.T, path string, rs []Record) {
	t.Helper()
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunBenchGate drives the full CLI through run(): convert mode, the
// bench -compare gate in its pass/regress/vacuous shapes, and the usage
// errors — the exit-code contract CI depends on.
func TestRunBenchGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeRecs(t, oldPath, recs("BenchmarkA-4", 100.0, "BenchmarkB-4", 200.0))

	// Pass: within threshold.
	writeRecs(t, newPath, recs("BenchmarkA-8", 110.0, "BenchmarkB-8", 190.0))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", oldPath, newPath}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("clean compare = %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "ok") {
		t.Errorf("verdicts missing:\n%s", stdout.String())
	}

	// Fail: regression past the threshold.
	writeRecs(t, newPath, recs("BenchmarkA-8", 500.0, "BenchmarkB-8", 190.0))
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-compare", oldPath, newPath}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed compare = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "regressed") {
		t.Errorf("stderr = %q", stderr.String())
	}

	// Fail: new benchmark missing from the baseline.
	writeRecs(t, newPath, recs("BenchmarkA-8", 100.0, "BenchmarkNew-8", 1.0))
	stderr.Reset()
	if code := run([]string{"-compare", oldPath, newPath}, nil, &stdout, &stderr); code != 1 {
		t.Fatalf("missing-from-baseline compare = %d, want 1", code)
	}

	// Vacuous gate: no overlap at all is exit 2, not a green run.
	writeRecs(t, newPath, recs("BenchmarkZ-8", 1.0))
	stderr.Reset()
	if code := run([]string{"-compare", oldPath, newPath}, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("vacuous compare = %d, want 2", code)
	}

	// File and usage errors.
	if code := run([]string{"-compare", oldPath, filepath.Join(dir, "absent.json")}, nil, &stdout, &stderr); code != 2 {
		t.Error("absent file not exit 2")
	}
	if code := run([]string{"-bogus"}, nil, &stdout, &stderr); code != 2 {
		t.Error("unknown flag not exit 2")
	}
}

func TestRunConvertMode(t *testing.T) {
	in := strings.NewReader("BenchmarkX-4   10   125 ns/op   7 B/op\nnot a bench line\n")
	var stdout, stderr bytes.Buffer
	if code := run(nil, in, &stdout, &stderr); code != 0 {
		t.Fatalf("convert = %d\n%s", code, stderr.String())
	}
	var out []Record
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].NsPerOp != 125 || out[0].Metrics["B/op"] != 7 {
		t.Errorf("converted = %+v", out)
	}
}
