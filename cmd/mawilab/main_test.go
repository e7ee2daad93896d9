package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
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

	bin := filepath.Join(dir, "mawilab")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
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
