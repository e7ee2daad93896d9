package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mawilab"
	"mawilab/internal/trace"
)

// buildMawigen builds the command into a test directory and returns its path.
func buildMawigen(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec-based smoke test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "mawigen")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	return bin
}

// TestGenSmoke is the black-box check of the generator command: it builds
// the real binary, writes the 30-second 2004-05-10 archive day to a file
// and requires that file to be EncodePcap of that day's index (seed 1, as
// NewArchive(1) generates it), to decode to the index's digest, and the
// stderr summary to count the index's packets, flows and duration.
func TestGenSmoke(t *testing.T) {
	bin := buildMawigen(t)
	out := filepath.Join(filepath.Dir(bin), "day.pcap")
	var stderr bytes.Buffer
	gen := exec.Command(bin, "-date", "2004-05-10", "-duration", "30", "-out", out)
	gen.Stderr = &stderr
	if err := gen.Run(); err != nil {
		t.Fatalf("mawigen: %v\n%s", err, stderr.Bytes())
	}
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	arch := mawilab.NewArchive(1)
	arch.Duration = 30
	day := arch.Day(mawilab.Date(2004, 5, 10))
	ix := trace.NewIndex(day.Trace)
	var want bytes.Buffer
	if err := mawilab.EncodePcap(&want, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, want.Bytes()) {
		t.Errorf("-out wrote %d bytes, not the %d bytes of EncodePcap of the day's index", len(written), want.Len())
	}
	back, err := mawilab.DecodePcap(bytes.NewReader(written))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if got := back.Digest(); got != ix.Digest() {
		t.Errorf("-out decodes to digest %s, the day's index is %s", got, ix.Digest())
	}
	line := fmt.Sprintf("generated %s: %d packets, %d flows, %.1fs, %d truth events\n",
		day.Trace.Name, ix.Len(), ix.Flows(), ix.Duration(), len(day.Truth))
	if stderr.String() != line {
		t.Errorf("stderr = %q, want %q", stderr.String(), line)
	}
}

// TestGenTruthWithPcapOnStdout: with -truth -out - stdout is the pcap alone,
// EncodePcap of the day's index byte for byte, and the truth table goes to
// stderr after the summary line, one line per event.
func TestGenTruthWithPcapOnStdout(t *testing.T) {
	bin := buildMawigen(t)
	var stdout, stderr bytes.Buffer
	gen := exec.Command(bin, "-date", "2003-09-01", "-duration", "30", "-truth", "-out", "-")
	gen.Stdout, gen.Stderr = &stdout, &stderr
	if err := gen.Run(); err != nil {
		t.Fatalf("mawigen: %v\n%s", err, stderr.Bytes())
	}

	arch := mawilab.NewArchive(1)
	arch.Duration = 30
	day := arch.Day(mawilab.Date(2003, 9, 1))
	if len(day.Truth) == 0 {
		t.Fatal("the day has no truth events to print")
	}
	ix := trace.NewIndex(day.Trace)
	var want bytes.Buffer
	if err := mawilab.EncodePcap(&want, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("stdout holds %d bytes, not the %d bytes of EncodePcap of the day's index", stdout.Len(), want.Len())
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 1+len(day.Truth) {
		t.Fatalf("stderr has %d lines, want the summary and %d truth events:\n%s", len(lines), len(day.Truth), stderr.Bytes())
	}
	for i, ev := range day.Truth {
		if line := lines[1+i]; !strings.HasPrefix(line, ev.Kind.String()) || !strings.HasSuffix(line, ev.Description) {
			t.Errorf("stderr line %d = %q, want event %s: %s", 1+i, line, ev.Kind, ev.Description)
		}
	}
}
