package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mawilab"
)

// TestCLISmoke is the black-box check of the labeling command: it builds
// the real binary, labels the golden fixture day from a pcap file and
// asserts that the CSV digest matches testdata/pipeline_golden.json at one
// worker and at four, that -stream with one unbounded segment prints one
// window whose CSV is the batch CSV, and that -in together with -date exits
// 1.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test skipped in -short mode")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "pipeline_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		CSVSHA256 string `json:"csv_sha256"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	arch := mawilab.NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	var pcapBuf bytes.Buffer
	if err := mawilab.WritePcap(&pcapBuf, arch.Day(mawilab.Date(2004, 5, 10)).Trace); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "day.pcap")
	if err := os.WriteFile(in, pcapBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	bin := buildCLI(t, dir)
	run := func(args ...string) []byte {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("mawilab %s: %v", strings.Join(args, " "), err)
		}
		return out
	}

	csv := run("-in", in, "-workers", "1")
	if sum := sha256.Sum256(csv); hex.EncodeToString(sum[:]) != golden.CSVSHA256 {
		t.Fatalf("-workers 1 CSV sha256 = %x, want %s", sum, golden.CSVSHA256)
	}
	if par := run("-in", in, "-workers", "4"); !bytes.Equal(par, csv) {
		t.Error("-workers 4 CSV differs from -workers 1")
	}

	streamed := run("-in", in, "-workers", "1", "-stream", "-segment", "0")
	header, body, ok := bytes.Cut(streamed, []byte("\n"))
	if !ok || !strings.HasPrefix(string(header), "# window 0 ") {
		t.Fatalf("-stream output starts %q, want one # window 0 block", header)
	}
	if !bytes.Equal(body, csv) {
		t.Error("-stream -segment 0 window CSV differs from the batch CSV")
	}

	var exit *exec.ExitError
	if err := exec.Command(bin, "-in", in, "-date", "2004-05-10").Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("-in with -date: %v, want exit status 1", err)
	}
}

// buildCLI builds the mawilab binary into dir.
func buildCLI(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "mawilab")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	return bin
}

// TestCLIStreamCutPcap: -stream over a pcap whose last record is cut short
// exits 1 with the pcap error on stderr, and prints no window whose segments
// reach the cut — what batch mode prints for the same file is nothing at all.
// Windows sealed before the cut may print.
func TestCLIStreamCutPcap(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	arch := mawilab.NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	tr := arch.Day(mawilab.Date(2004, 5, 10)).Trace
	var pcapBuf bytes.Buffer
	if err := mawilab.WritePcap(&pcapBuf, tr); err != nil {
		t.Fatal(err)
	}
	// 100 bytes off the end cut the last records of a header-only capture
	// (≤ 70 bytes a record); the first packet the reader cannot return whole
	// is at most the second to last.
	cut := pcapBuf.Bytes()[:pcapBuf.Len()-100]
	cutTS := tr.Packets[tr.Len()-2].TS
	in := filepath.Join(dir, "cut.pcap")
	if err := os.WriteFile(in, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := buildCLI(t, dir)

	for _, workers := range []string{"1", "2"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-in", in, "-workers", workers, "-stream", "-segment", "5", "-window", "2")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-workers %s: %v, want exit status 1", workers, err)
		}
		if !strings.Contains(stderr.String(), "mawilab: reading stream: pcap: truncated record") {
			t.Errorf("-workers %s: stderr %q lacks the pcap error", workers, stderr.String())
		}
		if strings.Contains(stderr.String(), "context canceled") {
			t.Errorf("-workers %s: stderr %q reports the cancellation, not the pcap error", workers, stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			var wi int
			var start, end float64
			if _, err := fmt.Sscanf(line, "# window %d [%g,%g)", &wi, &start, &end); err != nil {
				continue
			}
			if end*1e6 > float64(cutTS) {
				t.Errorf("-workers %s: printed window %d [%g,%g), which reaches the cut at %d µs", workers, wi, start, end, cutTS)
			}
		}
	}
}
