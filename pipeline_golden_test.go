package mawilab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"mawilab/internal/trace"
)

// updateGolden regenerates the committed end-to-end fixture. Pipeline output
// is only allowed to move with a deliberate fixture refresh:
//
//	go test . -run TestPipelineGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden fixture files")

const pipelineGoldenPath = "testdata/pipeline_golden.json"

// pipelineGolden pins the full detect → estimate → combine → label chain on
// one small generated day: any cross-package drift — generator bytes,
// detector alarms, similarity graph, Louvain communities, SCANN decisions
// and scores, rule mining, heuristics — lands in one of these fields.
type pipelineGolden struct {
	// TracePackets and TraceSHA256 pin the generated input.
	TracePackets int    `json:"trace_packets"`
	TraceSHA256  string `json:"trace_sha256"`
	// Alarms is the detector-ensemble output size.
	Alarms int `json:"alarms"`
	// Communities is the similarity-estimator community count.
	Communities int `json:"communities"`
	// Labels is each community's taxonomy label, in community order.
	Labels []string `json:"labels"`
	// CSVSHA256 digests the full WriteCSV database output — rules,
	// heuristics, categories, sizes and scores included.
	CSVSHA256 string `json:"csv_sha256"`
	// ADMDSHA256 digests the admd XML output, whose SCANN scores are
	// printed at full precision: the one field that moves when a float
	// rounds differently anywhere under the combiner (the eigensolver,
	// correspondence analysis) without moving a label or a CSV byte.
	ADMDSHA256 string `json:"admd_sha256"`
}

// TestPipelineGolden runs one Sasser-era archive day through the complete
// pipeline and compares against the committed fixture — community count,
// per-community labels, and the CSV digest — at both the sequential
// reference path and Parallelism(4). It is the repo-wide drift tripwire:
// a change anywhere in the chain that moves the labeling shows up here even
// when every package-local test still passes.
func TestPipelineGolden(t *testing.T) {
	arch := NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	day := arch.Day(Date(2004, 5, 10))

	got := pipelineGolden{
		TracePackets: day.Trace.Len(),
		TraceSHA256:  trace.NewIndex(day.Trace).Digest(),
	}
	for _, workers := range []int{1, 4} {
		l, err := NewPipeline().Parallelism(workers).Run(day.Trace)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		labels := make([]string, len(l.Reports))
		for i, rep := range l.Reports {
			labels[i] = rep.Label.String()
		}
		var csv bytes.Buffer
		if err := l.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		var admd bytes.Buffer
		if err := l.WriteADMD(&admd, day.Trace.Name); err != nil {
			t.Fatal(err)
		}
		digest, admdDigest := sha256.Sum256(csv.Bytes()), sha256.Sum256(admd.Bytes())
		if workers == 1 {
			got.Alarms = len(l.Alarms)
			got.Communities = len(l.Result.Communities)
			got.Labels = labels
			got.CSVSHA256 = hex.EncodeToString(digest[:])
			got.ADMDSHA256 = hex.EncodeToString(admdDigest[:])
			continue
		}
		// The parallel path must reproduce the sequential fixture exactly.
		if hex.EncodeToString(digest[:]) != got.CSVSHA256 {
			t.Errorf("workers=%d: CSV digest differs from the sequential reference", workers)
		}
		if hex.EncodeToString(admdDigest[:]) != got.ADMDSHA256 {
			t.Errorf("workers=%d: ADMD digest differs from the sequential reference", workers)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pipelineGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", pipelineGoldenPath)
		return
	}

	data, err := os.ReadFile(pipelineGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	var want pipelineGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", pipelineGoldenPath, err)
	}
	if got.TracePackets != want.TracePackets || got.TraceSHA256 != want.TraceSHA256 {
		t.Errorf("generated day drifted: %d packets / %s..., want %d / %s... (mawigen change? refresh fixtures deliberately with -update)",
			got.TracePackets, got.TraceSHA256[:12], want.TracePackets, want.TraceSHA256[:12])
	}
	if got.Alarms != want.Alarms {
		t.Errorf("detector ensemble drifted: %d alarms, want %d", got.Alarms, want.Alarms)
	}
	if got.Communities != want.Communities {
		t.Errorf("estimator drifted: %d communities, want %d", got.Communities, want.Communities)
	}
	if len(got.Labels) != len(want.Labels) {
		t.Errorf("labeling drifted: %d reports, want %d", len(got.Labels), len(want.Labels))
	} else {
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Errorf("community %d label drifted: %s, want %s", i, got.Labels[i], want.Labels[i])
			}
		}
	}
	if got.CSVSHA256 != want.CSVSHA256 {
		t.Errorf("CSV output drifted: %s..., want %s... (if deliberate, refresh with -update)",
			got.CSVSHA256[:12], want.CSVSHA256[:12])
	}
	if got.ADMDSHA256 != want.ADMDSHA256 {
		t.Errorf("ADMD output drifted: %s..., want %s... (if deliberate, refresh with -update)",
			got.ADMDSHA256[:12], want.ADMDSHA256[:12])
	}
}
