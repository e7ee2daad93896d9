package suite

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

func TestStandardSuiteShape(t *testing.T) {
	dets := Standard()
	if len(dets) != 4 {
		t.Fatalf("suite has %d detectors, want 4", len(dets))
	}
	names := map[string]bool{}
	totalConfigs := 0
	for _, d := range dets {
		names[d.Name()] = true
		totalConfigs += d.NumConfigs()
	}
	for _, want := range []string{"pca", "gamma", "hough", "kl"} {
		if !names[want] {
			t.Errorf("missing detector %q", want)
		}
	}
	if totalConfigs != 12 {
		t.Errorf("total configurations = %d, want 12 (the paper's 4×3)", totalConfigs)
	}
	totals, err := detectors.Totals(dets)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dets {
		if totals[d.Name()] != d.NumConfigs() {
			t.Errorf("totals[%s] = %d", d.Name(), totals[d.Name()])
		}
	}
}

// TestEndToEndPipeline runs the full paper pipeline on one synthetic day:
// detectors → similarity estimator → SCANN → labels, and checks the
// headline behaviours hold (anomalies found and labeled, scan community
// classified as Attack by Table 1 heuristics).
func TestEndToEndPipeline(t *testing.T) {
	cfg := mawigen.DefaultConfig(991)
	cfg.BackgroundRate = 300
	cfg.Anomalies = []mawigen.Spec{
		{Kind: mawigen.KindWormSasser, Start: 10, Duration: 25, Rate: 200},
		{Kind: mawigen.KindICMPFlood, Start: 35, Duration: 15, Rate: 300},
	}
	gen := mawigen.Generate(cfg)

	// One index for the whole day, shared by detection and estimation — the
	// same lifecycle a sealed segment gives the pipeline.
	ctx := context.Background()
	ix := trace.NewIndex(gen.Trace)
	alarms, totals, err := detectors.DetectAllContext(ctx, ix, Standard(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) < 6 {
		t.Fatalf("ensemble produced only %d alarms", len(alarms))
	}

	res, err := core.EstimateContext(ctx, ix, alarms, core.DefaultEstimatorConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) == 0 {
		t.Fatal("no communities")
	}

	// At least one community should gather alarms from several detectors:
	// the synergy the paper is about.
	multi := 0
	for i := range res.Communities {
		if len(res.DetectorsIn(&res.Communities[i])) >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no community spans multiple detectors")
	}

	dec, err := core.NewSCANN().Classify(res, res.Confidences(totals))
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, d := range dec {
		if d.Accepted {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("SCANN accepted nothing on a two-attack trace")
	}

	reports, err := core.BuildReportsContext(context.Background(), res, dec, core.DefaultReportOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	anomalousAttack := 0
	for _, rep := range reports {
		if rep.Label == core.Anomalous && rep.Class.String() == "Attack" {
			anomalousAttack++
		}
	}
	if anomalousAttack == 0 {
		t.Error("no accepted community classified as Attack by Table 1")
	}

	// Ground truth: the injected events should be covered by accepted
	// communities' traffic.
	coveredEvents := 0
	for _, ev := range gen.Truth {
		covered := false
		for _, rep := range reports {
			if rep.Label != core.Anomalous {
				continue
			}
			c := &res.Communities[rep.Community]
			hits := 0
			for _, pi := range c.Traffic.Packets {
				if ev.Matches(&gen.Trace.Packets[pi]) {
					hits++
					if hits >= 20 {
						covered = true
						break
					}
				}
			}
			if covered {
				break
			}
		}
		if covered {
			coveredEvents++
		}
	}
	if coveredEvents == 0 {
		t.Errorf("no injected event covered by accepted communities (%d events)", len(gen.Truth))
	}
}

// twoDays generates the two archive days the split tests run over: one from
// the Sasser era and one quiet-season day, so the twelve outputs differ in
// size and in which configurations fire.
func twoDays(t *testing.T) []*trace.Index {
	t.Helper()
	arch := mawigen.NewArchive(77)
	arch.Duration = 40
	arch.BaseRate = 220
	var out []*trace.Index
	for _, date := range []time.Time{
		time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC),
		time.Date(2006, 2, 13, 0, 0, 0, 0, time.UTC),
	} {
		out = append(out, trace.NewIndex(arch.Day(date).Trace))
	}
	return out
}

// TestDetectAllMatchesPerConfigDetect pins the prepare/decide fan-out to the
// contract it replaced: at every worker count DetectAllContext equals the
// concatenation of d.Detect(ix, c) in (detector, config) order.
func TestDetectAllMatchesPerConfigDetect(t *testing.T) {
	for di, ix := range twoDays(t) {
		var want []core.Alarm
		for _, d := range Standard() {
			for c := 0; c < d.NumConfigs(); c++ {
				alarms, err := d.Detect(ix, c)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, alarms...)
			}
		}
		if len(want) == 0 {
			t.Fatalf("day %d raised no alarm", di)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, _, err := detectors.DetectAllContext(context.Background(), ix, Standard(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("day %d workers=%d: DetectAllContext differs from the per-config Detect concatenation (%d vs %d alarms)",
					di, workers, len(got), len(want))
			}
		}
	}
}

// TestDecideConcurrent decides every configuration of one Prepared from
// eight goroutines at once — a Prepared is read-only after Prepare, and the
// race detector checks that it is — and compares each answer with the
// sequential one.
func TestDecideConcurrent(t *testing.T) {
	ix := twoDays(t)[0]
	for _, d := range Standard() {
		prepared, err := d.(detectors.Preparer).Prepare(ix)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]core.Alarm, d.NumConfigs())
		for c := range want {
			if want[c], err = prepared.Decide(c); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < d.NumConfigs(); i++ {
					c := (i + g) % d.NumConfigs()
					got, err := prepared.Decide(c)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[c]) {
						t.Errorf("%s config %d: concurrent Decide differs from the sequential one", d.Name(), c)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestDetectAllBoundsTimeBins: two packets 2·10⁶ s apart need more time bins
// than a detector may allocate at any standard width — 400 000 of KL's 5 s,
// 4·10⁶ of Hough's and Gamma's 0.5 s. Each standard detector refuses the index
// from DetectAllContext, naming itself and its bin width, before sizing
// anything by the span: the call allocates under 1 MB.
func TestDetectAllBoundsTimeBins(t *testing.T) {
	ix := trace.NewIndex(&trace.Trace{Packets: []trace.Packet{
		{TS: 0, Src: 1, Dst: 2, Len: 40, Proto: trace.TCP},
		{TS: 2e12, Src: 2, Dst: 1, Len: 40, Proto: trace.TCP},
	}})
	width := map[string]string{"pca": "pca: 1 s bins", "gamma": "gamma: 0.5 s bins", "hough": "hough: 0.5 s bins", "kl": "kl: 5 s bins"}
	for _, d := range Standard() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := detectors.DetectAllContext(context.Background(), ix, []detectors.Detector{d}, 1)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), d.Name()+": prepare") || !strings.Contains(err.Error(), width[d.Name()]) {
			t.Errorf("%s: error = %v, want one naming the detector and %q", d.Name(), err, width[d.Name()])
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing the span allocated %d bytes", d.Name(), got)
		}
	}
}

// TestDetectAllAcceptsLateSegment: the bound holds a stream segment to its
// own span, not to its age, and so does the memory its detection takes. A
// 15 s segment one day and 16 days into a stream — 17 280 and 276 483 of
// KL's 5 s bins from 0 s, the second past the bound — is labeled by each
// standard detector within its allocation bound. Twenty packets a second
// from 16 sources to one destination draw a line in Hough's destination
// plane, so every detector does its full work. PCA, Gamma and Hough size
// that work by the bins the segment occupies, so 1 MB holds them at any age.
// KL still keeps per-bin arrays from 0 s — the largest z per bin, MedianMAD's
// scratch and four KL series, about 56 B per 5 s bin of age — so its bound
// grows by 64 B a bin.
func TestDetectAllAcceptsLateSegment(t *testing.T) {
	for _, days := range []int64{1, 16} {
		late := days * 86400e6
		tr := &trace.Trace{}
		for i := range int64(300) {
			tr.Append(trace.Packet{TS: late + i*50_000, Src: trace.IPv4(1 + i%16), Dst: 2, Len: 40, Proto: trace.TCP})
		}
		ix := trace.NewIndex(tr)
		t.Run(fmt.Sprintf("age=%dd", days), func(t *testing.T) {
			for _, d := range Standard() {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				alarms, _, err := detectors.DetectAllContext(context.Background(), ix, []detectors.Detector{d}, 1)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s: 15 s segment at age %d d: %v", d.Name(), days, err)
				}
				bound := uint64(1 << 20)
				if d.Name() == "kl" {
					bound += 64 * uint64(late/5e6)
				}
				got := after.TotalAlloc - before.TotalAlloc
				if got > bound {
					t.Errorf("%s: detecting a 15 s segment at age %d d allocated %d bytes, bound %d", d.Name(), days, got, bound)
				}
				t.Logf("%s: %d alarms, %d bytes", d.Name(), len(alarms), got)
			}
		})
	}
}
