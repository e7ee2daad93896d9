package mawilab

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/trace"
)

// detTestArchiveDay returns a small seeded archive day for determinism
// tests (a Sasser-era date, so the anomaly mix is rich).
func detTestArchiveDay() (*Trace, time.Time) {
	arch := NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	d := time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC)
	return arch.Day(d).Trace, d
}

// TestParallelismDeterminism is the pipeline's core concurrency guarantee:
// Parallelism(1) — the exact sequential reference path — and Parallelism(8)
// must produce byte-identical labeling output on the same archive day.
func TestParallelismDeterminism(t *testing.T) {
	tr, _ := detTestArchiveDay()

	seq, err := NewPipeline().Parallelism(1).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewPipeline().Parallelism(8).Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seq.Alarms, par.Alarms) {
		t.Fatalf("alarm streams differ: %d sequential vs %d parallel", len(seq.Alarms), len(par.Alarms))
	}
	if !reflect.DeepEqual(seq.Decisions, par.Decisions) {
		t.Fatal("combiner decisions differ between worker counts")
	}
	if !reflect.DeepEqual(seq.Reports, par.Reports) {
		t.Fatal("community reports differ between worker counts")
	}

	var csvSeq, csvPar bytes.Buffer
	if err := seq.WriteCSV(&csvSeq); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&csvPar); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvSeq.Bytes(), csvPar.Bytes()) {
		t.Fatal("CSV labeling not byte-identical between Parallelism(1) and Parallelism(8)")
	}

	var admdSeq, admdPar bytes.Buffer
	if err := seq.WriteADMD(&admdSeq, "det"); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteADMD(&admdPar, "det"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(admdSeq.Bytes(), admdPar.Bytes()) {
		t.Fatal("ADMD labeling not byte-identical between Parallelism(1) and Parallelism(8)")
	}
}

// TestEstimatorParallelismDeterminism is the simgraph-level equivalent of
// TestParallelismDeterminism: the estimator — whose similarity graph is now
// built by the sharded internal/simgraph package — must produce identical
// graphs, Louvain community assignments and traffic unions at workers
// 1, 2, 4 and 8 on a real detector ensemble.
func TestEstimatorParallelismDeterminism(t *testing.T) {
	tr, _ := detTestArchiveDay()
	p := NewPipeline()
	// One shared index, as the pipeline builds it: detector fan-out and
	// estimator resolve against the same structure.
	ix := trace.NewIndex(tr)
	alarms, _, err := detectors.DetectAllContext(context.Background(), ix, p.Detectors, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("detector ensemble produced no alarms on a Sasser-era day")
	}
	ref, err := core.EstimateContext(context.Background(), ix, alarms, p.Estimator, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := core.EstimateContext(context.Background(), ix, alarms, p.Estimator, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Graph, ref.Graph) {
			t.Fatalf("workers=%d: similarity graph differs from the sequential reference", workers)
		}
		if res.Graph.TotalWeight() != ref.Graph.TotalWeight() {
			t.Fatalf("workers=%d: total weight %v != %v", workers, res.Graph.TotalWeight(), ref.Graph.TotalWeight())
		}
		if !reflect.DeepEqual(res.Communities, ref.Communities) {
			t.Fatalf("workers=%d: Louvain communities differ (%d vs %d)",
				workers, len(res.Communities), len(ref.Communities))
		}
	}
}

// TestParallelismDefaultMatchesSequential: a zero-value Workers field (the
// NewPipeline default) is the sequential path and must agree with an
// explicit Parallelism(4).
func TestParallelismDefaultMatchesSequential(t *testing.T) {
	tr, _ := detTestArchiveDay()
	def, err := NewPipeline().Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewPipeline().Parallelism(4).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := def.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("default pipeline and Parallelism(4) disagree")
	}
}

// TestRunContextCancelled: a cancelled context stops the pipeline before
// the detector fan-out schedules work.
func TestRunContextCancelled(t *testing.T) {
	tr, _ := detTestArchiveDay()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := NewPipeline().Parallelism(workers).RunContext(ctx, tr)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// errorDetector fails on one configuration, to exercise deterministic
// error propagation through the parallel fan-out.
type errorDetector struct{ failCfg int }

func (d *errorDetector) Name() string    { return "errdet" }
func (d *errorDetector) NumConfigs() int { return 3 }
func (d *errorDetector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	if config == d.failCfg {
		return nil, errors.New("synthetic detector failure")
	}
	return nil, nil
}

// TestRunDetectorErrorPropagates: a failing detector config surfaces the
// same wrapped error at every worker count.
func TestRunDetectorErrorPropagates(t *testing.T) {
	tr, _ := detTestArchiveDay()
	want := ""
	for i, workers := range []int{1, 8} {
		p := NewPipeline().Parallelism(workers)
		p.Detectors = []Detector{&errorDetector{failCfg: 1}}
		_, err := p.Run(tr)
		if err == nil {
			t.Fatalf("workers=%d: pipeline swallowed the detector error", workers)
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error %q, sequential path said %q", workers, err.Error(), want)
		}
	}
	if want != "detectors: errdet/1: synthetic detector failure" {
		t.Fatalf("unexpected error shape: %q", want)
	}
}
