package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"mawilab"
	"mawilab/internal/trace"
)

// TestGenSmoke is the black-box check of the generator command: it builds
// the real binary, writes the 30-second 2004-05-10 archive day to a file
// and requires that file to be EncodePcap of that day's index (seed 1, as
// NewArchive(1) generates it), to decode to the index's digest, and the
// stderr summary to count the index's packets, flows and duration.
func TestGenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mawigen")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	out := filepath.Join(dir, "day.pcap")
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
