package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// update rewrites the committed digest of the small evaluation. The paper's
// numbers are only allowed to move with a deliberate refresh:
//
//	go test ./cmd/experiments -run TestSmallEvaluationGolden -update
var update = flag.Bool("update", false, "rewrite testdata/small_all.sha256")

const smallGoldenPath = "testdata/small_all.sha256"

// smallArgs is every experiment on a small sample of the archive: three
// estimator months and a combiner day every 180 days.
var smallArgs = []string{"-exp", "all", "-months", "3", "-step", "180"}

// TestSmallEvaluationGolden pins the evaluation output: every table and
// figure of §4 on the small sample, byte for byte, at one and two workers.
func TestSmallEvaluationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("labels the small archive sample four times")
	}
	var sums []string
	for _, workers := range []string{"1", "2"} {
		var out bytes.Buffer
		if err := run(context.Background(), append(smallArgs, "-workers", workers), &out, io.Discard); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		sums = append(sums, fmt.Sprintf("%x", sha256.Sum256(out.Bytes())))
	}
	if sums[0] != sums[1] {
		t.Fatalf("stdout differs between 1 and 2 workers: %s vs %s", sums[0], sums[1])
	}
	if *update {
		if err := os.WriteFile(smallGoldenPath, []byte(sums[0]+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", smallGoldenPath)
		return
	}
	want, err := os.ReadFile(smallGoldenPath)
	if err != nil {
		t.Fatalf("reading golden digest (run with -update to create it): %v", err)
	}
	if got := sums[0]; got != strings.TrimSpace(string(want)) {
		t.Errorf("evaluation output sha256 %s, want %s (if deliberate, refresh with -update)", got, strings.TrimSpace(string(want)))
	}
}

// TestUnknownExperimentRejected: -exp must name one experiment exactly. A
// substring of the list, two names, an empty name and an unknown one are
// each an error before any day is labeled — nothing reaches either stream.
func TestUnknownExperimentRejected(t *testing.T) {
	for _, exp := range []string{"ig", "fig3 fig4", "", "nope"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-exp", exp, "-months", "3", "-step", "180"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown experiment %q", exp)) {
			t.Errorf("-exp %q: err = %v, want unknown experiment", exp, err)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("-exp %q: wrote %d stdout / %d stderr bytes before rejecting", exp, stdout.Len(), stderr.Len())
		}
	}
}
