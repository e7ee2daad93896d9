package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mawilab"
)

// TestHTTPServerTimeouts: the server main runs bounds how long a client may
// take to send headers and to sit idle, and leaves bodies and responses
// untimed.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want both unset", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestServeSmoke is the black-box daemon check behind `make serve-smoke`: it
// builds the real binary, boots it on a random port, uploads the golden
// fixture day over HTTP, asserts the served CSV digest matches
// testdata/pipeline_golden.json, that the trace.pcap it stored is smaller
// than the upload and that a flows.bin of 13 bytes per flow sits beside it,
// scrapes /metrics, and SIGTERMs the process expecting a clean drain and
// exit 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test skipped in -short mode")
	}

	// Golden fixture: expected CSV digest for the generated day.
	goldenPath := filepath.Join("..", "..", "testdata", "pipeline_golden.json")
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		CSVSHA256 string `json:"csv_sha256"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}

	arch := mawilab.NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	day := arch.Day(mawilab.Date(2004, 5, 10)).Trace
	var pcapBuf bytes.Buffer
	if err := mawilab.WritePcap(&pcapBuf, day); err != nil {
		t.Fatal(err)
	}

	// Build the daemon binary.
	bin := filepath.Join(t.TempDir(), "mawilabd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	// Boot on a random port; the discovery line on stdout carries the addr.
	storeDir := t.TempDir()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		// Only reap if the test bailed before the SIGTERM wait consumed
		// the exit (ProcessState is set once Wait has returned).
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-exited
		}
	}()

	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading discovery line: %v", err)
	}
	const prefix = "mawilabd: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected discovery line %q", line)
	}
	base := "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))

	// Upload the golden day and wait for the labeling job.
	resp, err := http.Post(base+"/v1/traces?name=golden-day", "application/vnd.tcpdump.pcap", bytes.NewReader(pcapBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Digest string `json:"digest"`
		JobID  string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("labeling job never finished")
		}
		r, err := http.Get(base + "/v1/jobs/" + up.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(r.Body).Decode(&job)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == "failed" {
			t.Fatalf("job failed: %s", job.Error)
		}
		if job.State == "done" {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The served CSV must be byte-identical to the batch pipeline fixture.
	r, err := http.Get(base + "/v1/labels/" + up.Digest + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("labels = %d", r.StatusCode)
	}
	sum := sha256.Sum256(csv)
	if got := hex.EncodeToString(sum[:]); got != golden.CSVSHA256 {
		t.Fatalf("served CSV sha256 = %s, want golden %s", got, golden.CSVSHA256)
	}

	// The store keeps the upload's headers, not its payload: the persisted
	// trace must be smaller than what was sent.
	stored, err := os.Stat(filepath.Join(storeDir, up.Digest, "trace.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if stored.Size() >= int64(pcapBuf.Len()) {
		t.Fatalf("stored trace.pcap is %d bytes, the upload was %d: payload not stripped", stored.Size(), pcapBuf.Len())
	}
	// Beside it, what a flow query reads: the flow table alone, 13 bytes a
	// flow plus a 13-byte frame.
	flowsBin, err := os.Stat(filepath.Join(storeDir, up.Digest, "flows.bin"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mawilab.DecodePcap(bytes.NewReader(pcapBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if flows := ix.Flows(); flowsBin.Size() == 0 || flowsBin.Size() > int64(13*flows+13) {
		t.Fatalf("stored flows.bin is %d bytes for %d flows, want at most %d", flowsBin.Size(), flows, 13*flows+13)
	}

	// /metrics exposes the daemon's counters.
	r, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{
		"mawilabd_uploads_total 1",
		`mawilabd_jobs_finished_total{state="done"} 1`,
		"mawilabd_cache_misses_total 1",
		"mawilabd_stage_seconds_count",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// SIGTERM: graceful drain, clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	fmt.Println("serve-smoke: served CSV digest matches golden fixture")
}
