package mawilab

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"mawilab/internal/detectors/pca"
	"mawilab/internal/trace"
)

// TestStreamConfigValidate walks every boundary of the typed validation:
// values the engine used to clamp silently now fail fast with a matchable
// sentinel.
func TestStreamConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  StreamConfig
		want error // nil = valid
	}{
		{"zero value (canonical batch)", StreamConfig{}, nil},
		{"typical stream", StreamConfig{SegmentSeconds: 900, WindowSegments: 4, WindowStride: 1}, nil},
		{"tumbling default stride", StreamConfig{SegmentSeconds: 5, WindowSegments: 3}, nil},
		{"stride equals window", StreamConfig{SegmentSeconds: 5, WindowSegments: 3, WindowStride: 3}, nil},
		{"negative seconds", StreamConfig{SegmentSeconds: -1}, ErrSegmentSeconds},
		{"NaN seconds", StreamConfig{SegmentSeconds: math.NaN()}, ErrSegmentSeconds},
		{"infinite seconds", StreamConfig{SegmentSeconds: math.Inf(1)}, ErrSegmentSeconds},
		{"negative window", StreamConfig{WindowSegments: -2}, ErrWindowSegments},
		{"negative stride", StreamConfig{WindowStride: -1}, ErrWindowStride},
		{"stride exceeds window", StreamConfig{WindowSegments: 2, WindowStride: 3}, ErrStrideExceedsWindow},
		{"stride exceeds defaulted window", StreamConfig{WindowStride: 2}, ErrStrideExceedsWindow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestPipelineValidate(t *testing.T) {
	p := NewPipeline()
	if err := p.Validate(); err != nil {
		t.Fatalf("default pipeline invalid: %v", err)
	}
	p.Workers = -1
	if err := p.Validate(); !errors.Is(err, ErrWorkers) {
		t.Fatalf("Workers=-1: Validate() = %v, want ErrWorkers", err)
	}
	p.Workers = 0
	p.Stream.WindowSegments = -1
	if err := p.Validate(); !errors.Is(err, ErrWindowSegments) {
		t.Fatalf("stream config not validated: %v", err)
	}
	p.Stream.WindowSegments = 0
	for _, support := range []float64{0, 0.01, 1} {
		p.RuleSupport = support
		if err := p.Validate(); err != nil {
			t.Fatalf("RuleSupport=%v: Validate() = %v, want nil", support, err)
		}
	}
	for _, support := range []float64{-0.1, 1.5, math.NaN()} {
		p.RuleSupport = support
		if err := p.Validate(); !errors.Is(err, ErrRuleSupport) {
			t.Fatalf("RuleSupport=%v: Validate() = %v, want ErrRuleSupport", support, err)
		}
	}
}

// countingDetector counts the Detect calls the engine makes on it and
// reports nothing.
type countingDetector struct{ calls *atomic.Int64 }

func (d countingDetector) Name() string    { return "counting" }
func (d countingDetector) NumConfigs() int { return 1 }
func (d countingDetector) Detect(*trace.Index, int) ([]Alarm, error) {
	d.calls.Add(1)
	return nil, nil
}

// TestRunRejectsRuleSupportBeforeDetecting pins that an invalid RuleSupport
// fails the batch and the stream path before the first segment is detected:
// a negative or NaN value used to become the default 0.2 silently, and one
// above 1 only failed inside the labeling tail, after every detector and the
// estimator had run.
func TestRunRejectsRuleSupportBeforeDetecting(t *testing.T) {
	arch := NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	day := arch.Day(Date(2004, 5, 10))

	for _, support := range []float64{-0.1, 1.5, math.NaN()} {
		var calls atomic.Int64
		p := NewPipeline()
		p.Detectors = []Detector{countingDetector{&calls}}
		p.RuleSupport = support
		if _, err := p.Run(day.Trace); !errors.Is(err, ErrRuleSupport) {
			t.Errorf("RuleSupport=%v: Run() error = %v, want ErrRuleSupport", support, err)
		}
		if _, err := p.RunAlarms(day.Trace, nil, map[string]int{"counting": 1}); !errors.Is(err, ErrRuleSupport) {
			t.Errorf("RuleSupport=%v: RunAlarms() error = %v, want ErrRuleSupport", support, err)
		}

		p.Stream = StreamConfig{SegmentSeconds: 10, WindowSegments: 2, WindowStride: 1}
		packets := make(chan Packet) // never written: validation must not block on it
		s := p.RunStream(context.Background(), packets)
		for range s.Windows() {
			t.Errorf("RuleSupport=%v: a window was labeled", support)
		}
		if err := s.Wait(); !errors.Is(err, ErrRuleSupport) {
			t.Errorf("RuleSupport=%v: RunStream Wait() = %v, want ErrRuleSupport", support, err)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("RuleSupport=%v: the detector ran %d times before the error surfaced", support, n)
		}
	}

	// The control: the same ensemble with the defaulting 0 runs its detector.
	var calls atomic.Int64
	p := NewPipeline()
	p.Detectors = []Detector{countingDetector{&calls}}
	p.RuleSupport = 0
	if _, err := p.Run(day.Trace); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("the counting detector never ran on a valid pipeline")
	}
}

// TestRunRejectsNegativeWorkersBeforeDetecting pins that every entry point
// fails a negative Workers with ErrWorkers before any detector runs; the
// batch entry points used to run it as 1.
func TestRunRejectsNegativeWorkersBeforeDetecting(t *testing.T) {
	tr := &Trace{Packets: []Packet{{TS: 0, Proto: trace.TCP, Len: 40}, {TS: 1e6, Proto: trace.TCP, Len: 40}}}
	runs := []struct {
		name string
		run  func(p *Pipeline) error
	}{
		{"Run", func(p *Pipeline) error { _, err := p.Run(tr); return err }},
		{"RunContext", func(p *Pipeline) error { _, err := p.RunContext(context.Background(), tr); return err }},
		{"RunIndex", func(p *Pipeline) error { _, err := p.RunIndex(context.Background(), trace.NewIndex(tr)); return err }},
		{"RunAlarms", func(p *Pipeline) error { _, err := p.RunAlarms(tr, nil, map[string]int{"counting": 1}); return err }},
		{"RunStream", func(p *Pipeline) error {
			packets := make(chan Packet) // never written: validation must not block on it
			return p.RunStream(context.Background(), packets).Wait()
		}},
	}
	for _, r := range runs {
		var calls atomic.Int64
		p := NewPipeline()
		p.Detectors = []Detector{countingDetector{&calls}}
		p.Workers = -3
		if err := r.run(p); !errors.Is(err, ErrWorkers) {
			t.Errorf("%s: error = %v, want ErrWorkers", r.name, err)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("%s: the detector ran %d times before the error surfaced", r.name, n)
		}
	}
}

// TestRunStreamRejectsInvalidConfig pins the fail-fast contract: an invalid
// StreamConfig surfaces from RunStream before any packet is consumed — the
// windows channel is closed immediately and Wait returns the typed error.
func TestRunStreamRejectsInvalidConfig(t *testing.T) {
	p := NewPipeline()
	p.Stream = StreamConfig{SegmentSeconds: 5, WindowSegments: 2, WindowStride: 3}
	packets := make(chan Packet) // never written: validation must not block on it
	s := p.RunStream(context.Background(), packets)
	if _, ok := <-s.Windows(); ok {
		t.Fatal("invalid config emitted a window")
	}
	if err := s.Wait(); !errors.Is(err, ErrStrideExceedsWindow) {
		t.Fatalf("Wait() = %v, want ErrStrideExceedsWindow", err)
	}
}

// TestConfigErrorsWinOverInputErrors pins the order of the checks at every
// entry point: a bad Workers or RuleSupport is reported as such even when the
// input is unsorted too, because the configuration is resolved before
// anything is indexed. Run and RunContext used to seal the trace first and
// return ErrUnsorted, and RunAlarms did so for a bad RuleSupport.
func TestConfigErrorsWinOverInputErrors(t *testing.T) {
	unsorted := &Trace{Packets: []Packet{{TS: 2e6, Proto: trace.TCP, Len: 40}, {TS: 1e6, Proto: trace.TCP, Len: 40}}}
	// An index cannot be built out of order, so RunIndex gets bare
	// out-of-order columns: nothing may read them before the check.
	unsortedIndex := &Index{TS: []int64{2e6, 1e6}}
	runs := []struct {
		name string
		run  func(p *Pipeline) error
	}{
		{"Run", func(p *Pipeline) error { _, err := p.Run(unsorted); return err }},
		{"RunContext", func(p *Pipeline) error { _, err := p.RunContext(context.Background(), unsorted); return err }},
		{"RunIndex", func(p *Pipeline) error { _, err := p.RunIndex(context.Background(), unsortedIndex); return err }},
		{"RunAlarms", func(p *Pipeline) error { _, err := p.RunAlarms(unsorted, nil, map[string]int{"pca": 3}); return err }},
		{"RunStream", func(p *Pipeline) error {
			_, err := drainStream(p.RunStream(context.Background(), replay(unsorted)))
			return err
		}},
	}
	configs := []struct {
		name string
		set  func(p *Pipeline)
		want error
	}{
		{"Workers=-1", func(p *Pipeline) { p.Workers = -1 }, ErrWorkers},
		{"RuleSupport=1.5", func(p *Pipeline) { p.RuleSupport = 1.5 }, ErrRuleSupport},
	}
	for _, c := range configs {
		for _, r := range runs {
			p := NewPipeline()
			c.set(p)
			if err := r.run(p); !errors.Is(err, c.want) {
				t.Errorf("%s with an unsorted input: %s error = %v, want %v", c.name, r.name, err, c.want)
			}
		}
	}
}

// TestObserveStages pins the telemetry hook: one batch run reports every
// stage at least once, with non-negative durations, and installing the hook
// does not move the labeling bytes.
func TestObserveStages(t *testing.T) {
	arch := NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	day := arch.Day(Date(2004, 5, 10))

	ref, err := NewPipeline().Run(day.Trace)
	if err != nil {
		t.Fatal(err)
	}

	seen := map[Stage]int{}
	p := NewPipeline()
	p.Observe = func(stage Stage, seconds float64) {
		if seconds < 0 {
			t.Errorf("stage %s: negative duration %g", stage, seconds)
		}
		seen[stage]++
	}
	got, err := p.Run(day.Trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []Stage{StageIngest, StageDetect, StageEstimate, StageLabel} {
		if seen[stage] == 0 {
			t.Errorf("stage %s never observed (saw %v)", stage, seen)
		}
	}
	var a, b bytes.Buffer
	if err := ref.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Observe hook changed the labeling bytes")
	}
}

// TestRunRejectsDuplicateDetectorNames pins the ensemble's naming contract:
// alarms, votes and confidences are keyed by detector name, so two detectors
// sharing one (here a second PCA) used to be conflated silently —
// totals["pca"] overwritten, both detectors' votes collapsed into one. Run
// and RunStream now fail, naming the detector, before the first segment is
// detected.
func TestRunRejectsDuplicateDetectorNames(t *testing.T) {
	arch := NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	day := arch.Day(Date(2004, 5, 10))

	p := NewPipeline()
	p.Detectors = append(StandardDetectors(), pca.New())
	detected := 0
	p.Observe = func(stage Stage, _ float64) {
		if stage == StageDetect {
			detected++
		}
	}
	if _, err := p.Run(day.Trace); err == nil || !strings.Contains(err.Error(), `"pca"`) {
		t.Fatalf("Run() error = %v, want one naming the repeated detector", err)
	}

	p.Stream = StreamConfig{SegmentSeconds: 10, WindowSegments: 2, WindowStride: 1}
	packets := make(chan Packet, day.Trace.Len())
	for _, pkt := range day.Trace.Packets {
		packets <- pkt
	}
	close(packets)
	s := p.RunStream(context.Background(), packets)
	for range s.Windows() {
		t.Error("a window was labeled by an ensemble with a repeated detector name")
	}
	if err := s.Wait(); err == nil || !strings.Contains(err.Error(), `"pca"`) {
		t.Fatalf("RunStream Wait() = %v, want one naming the repeated detector", err)
	}
	if detected != 0 {
		t.Errorf("the detector stage ran %d times before the error surfaced", detected)
	}
}
