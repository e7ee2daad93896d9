package eval

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mawilab/internal/core"
	"mawilab/internal/detectors/suite"
	"mawilab/internal/heuristics"
	"mawilab/internal/mawigen"
	wirev1 "mawilab/internal/serve/v1"
)

func testRunner() *Runner {
	arch := mawigen.NewArchive(77)
	arch.Duration = 45
	arch.BaseRate = 250
	return NewRunner(arch, suite.Standard())
}

func testDates(n int) []time.Time {
	var out []time.Time
	d := time.Date(2004, 6, 7, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		out = append(out, d.AddDate(0, 0, i*30))
	}
	return out
}

func TestRunnerDay(t *testing.T) {
	r := testRunner()
	day, err := r.Day(testDates(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(day.Result.Communities) == 0 {
		t.Fatal("no communities on an archive day")
	}
	if len(day.Reports) != len(day.Result.Communities) {
		t.Error("reports misaligned")
	}
	for _, name := range []string{"average", "minimum", "maximum", "SCANN"} {
		dec, ok := day.Decisions[name]
		if !ok {
			t.Fatalf("missing strategy %q", name)
		}
		if len(dec) != len(day.Result.Communities) {
			t.Fatalf("%s decisions misaligned", name)
		}
	}
	if len(day.Truth) == 0 {
		t.Error("archive day should carry ground truth")
	}
	if day.Totals["pca"] != 3 || day.Totals["kl"] != 3 {
		t.Errorf("totals = %v", day.Totals)
	}
}

func TestAttackRatioBounds(t *testing.T) {
	reports := []core.CommunityReport{
		{Class: heuristics.Attack},
		{Class: heuristics.Special},
		{Class: heuristics.Unknown},
		{Class: heuristics.Attack},
	}
	all := AttackRatio(reports, func(int) bool { return true })
	if all != 0.5 {
		t.Errorf("ratio = %f, want 0.5", all)
	}
	none := AttackRatio(reports, func(int) bool { return false })
	if none != 0 {
		t.Errorf("empty subset ratio = %f", none)
	}
	first := AttackRatio(reports, func(i int) bool { return i == 0 })
	if first != 1 {
		t.Errorf("single attack ratio = %f", first)
	}
}

// TestComputeGainCostLengthMismatch: a decisions slice from another day (or
// a stale strategy run) must be rejected with a descriptive error, not index
// out of range.
func TestComputeGainCostLengthMismatch(t *testing.T) {
	day := &DayResult{
		Date:    time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC),
		Reports: make([]core.CommunityReport, 3),
	}
	_, err := ComputeGainCost(day, make([]core.Decision, 2), "")
	if err == nil || !strings.Contains(err.Error(), "2 decisions for 3 reports") {
		t.Fatalf("err = %v, want a decisions/reports mismatch", err)
	}
	// Fig9 and Fig10 index the same decisions per report and must reject
	// the mismatch too instead of panicking mid-tally.
	day.Decisions = map[string][]core.Decision{"SCANN": make([]core.Decision, 2)}
	if _, err := Fig9([]*DayResult{day}, "SCANN"); err == nil {
		t.Fatal("Fig9 must reject misaligned decisions")
	}
	if _, err := Fig10([]*DayResult{day}, "SCANN"); err == nil {
		t.Fatal("Fig10 must reject misaligned decisions")
	}
	// Aligned decisions tally normally: zero-value reports are non-Attack
	// and zero-value decisions are rejections, so all three are GainRej.
	gc, err := ComputeGainCost(day, make([]core.Decision, 3), "")
	if err != nil {
		t.Fatal(err)
	}
	if gc != (GainCost{GainRej: 3}) {
		t.Fatalf("gc = %+v, want {GainRej: 3}", gc)
	}
}

// truncatingStrategy is a misbehaving custom Strategy returning one decision
// too few; it previously slipped through Runner.day unchecked and panicked
// downstream in RunRatios/Fig8-10.
type truncatingStrategy struct{}

func (truncatingStrategy) Name() string { return "truncating" }

func (truncatingStrategy) Classify(r *core.Result, conf []core.DetectorScores) ([]core.Decision, error) {
	n := len(r.Communities)
	if n > 0 {
		n--
	}
	return make([]core.Decision, n), nil
}

func TestDayRejectsMisalignedStrategy(t *testing.T) {
	r := testRunner()
	r.Strategies = []core.Strategy{truncatingStrategy{}}
	_, err := r.Day(testDates(1)[0])
	if err == nil || !strings.Contains(err.Error(), "!= communities") {
		t.Fatalf("err = %v, want a decisions/communities mismatch", err)
	}
}

// TestDayRejectsMisalignedExtraStrategy: a strategy the pipeline does not
// label with is classified by the runner itself, which must catch the same
// mismatch.
func TestDayRejectsMisalignedExtraStrategy(t *testing.T) {
	r := testRunner()
	r.Strategies = []core.Strategy{truncatingStrategy{}, core.NewSCANN()}
	_, err := r.Day(testDates(1)[0])
	if err == nil || !strings.Contains(err.Error(), "truncating") || !strings.Contains(err.Error(), "decisions for") {
		t.Fatalf("err = %v, want the truncating strategy's decisions/communities mismatch", err)
	}
}

// TestDayRejectsEmptyStrategies: with no strategy there is nothing to label
// a day under, so Day and Days fail before generating anything.
func TestDayRejectsEmptyStrategies(t *testing.T) {
	r := testRunner()
	r.Strategies = nil
	if _, err := r.Day(testDates(1)[0]); !errors.Is(err, errNoStrategies) {
		t.Fatalf("Day: err = %v, want errNoStrategies", err)
	}
	if _, err := r.Days(context.Background(), testDates(2)); !errors.Is(err, errNoStrategies) {
		t.Fatalf("Days: err = %v, want errNoStrategies", err)
	}
}

// TestRunnerDayMatchesGolden ties the figures to the end-to-end fixture: a
// Runner over the golden archive day must serve the reports whose CSV the
// root package's TestPipelineGolden pins, at every stage worker count.
func TestRunnerDayMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("../../testdata/pipeline_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		CSVSHA256 string `json:"csv_sha256"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	arch := mawigen.NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	r := NewRunner(arch, suite.Standard())
	for _, workers := range []int{1, 4} {
		r.Workers = workers
		day, err := r.Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var csv bytes.Buffer
		if err := wirev1.WriteCSV(&csv, day.Reports); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(csv.Bytes())); got != golden.CSVSHA256 {
			t.Errorf("workers=%d: CSV sha256 %s, want the golden %s", workers, got, golden.CSVSHA256)
		}
	}
}

func TestGainCostAdd(t *testing.T) {
	a := GainCost{1, 2, 3, 4}
	a.Add(GainCost{10, 20, 30, 40})
	if a != (GainCost{11, 22, 33, 44}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestRunRatiosAndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	r := testRunner()
	dates := testDates(3)
	ratios, days, err := RunRatios(context.Background(), r, dates)
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) != 3 || len(days) != 3 {
		t.Fatalf("got %d ratios / %d days", len(ratios), len(days))
	}
	for _, dr := range ratios {
		for name, v := range dr.Accepted {
			if v < 0 || v > 1 {
				t.Errorf("%s accepted ratio out of range: %f", name, v)
			}
		}
		for det, v := range dr.PerDetector {
			if v < 0 || v > 1 {
				t.Errorf("%s detector ratio out of range: %f", det, v)
			}
		}
	}

	// Fig 6: PDFs over the ratio samples.
	acc, rej, perDet := Fig6(ratios)
	if len(acc) != 4 || len(rej) != 4 {
		t.Errorf("fig6 strategy series = %d/%d, want 4/4", len(acc), len(rej))
	}
	if len(perDet) != 4 {
		t.Errorf("fig6c series = %d, want 4 detectors", len(perDet))
	}

	// Fig 7: time series aligned with dates.
	acc7, rej7 := Fig7(ratios)
	for _, s := range append(acc7, rej7...) {
		if len(s.Points) != len(dates) {
			t.Errorf("fig7 series %q has %d points, want %d", s.Name, len(s.Points), len(dates))
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].X <= s.Points[i-1].X {
				t.Errorf("fig7 %q X not increasing", s.Name)
			}
		}
	}

	// Fig 8 per-detector decomposition must be bounded by the overall.
	for _, det := range []string{"gamma", "hough", "kl"} {
		pts, err := Fig8(days, "SCANN", det)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 3 {
			t.Fatalf("fig8 points = %d", len(pts))
		}
		for _, p := range pts {
			if p.DetectorGainRej > p.OverallGainRej || p.DetectorCostRej > p.OverallCostRej ||
				p.DetectorGainAcc > p.OverallGainAcc || p.DetectorCostAcc > p.OverallCostAcc {
				t.Errorf("fig8 %s: detector share exceeds overall: %+v", det, p)
			}
		}
	}

	// Fig 9: SCANN row must dominate every single detector row.
	rows, err := Fig9(days, "SCANN")
	if err != nil {
		t.Fatal(err)
	}
	var scann *Fig9Row
	for i := range rows {
		if rows[i].Name == "SCANN" {
			scann = &rows[i]
		}
	}
	if scann == nil {
		t.Fatal("no SCANN row")
	}
	for _, r := range rows {
		if r.Name != "SCANN" && r.Total > scann.Total {
			t.Errorf("detector %s total %d exceeds SCANN %d", r.Name, r.Total, scann.Total)
		}
	}

	// Fig 10: PDFs over [0,10].
	f10, err := Fig10(days, "SCANN")
	if err != nil {
		t.Fatal(err)
	}
	if len(f10) != 3 {
		t.Errorf("fig10 series = %d, want 3 classes", len(f10))
	}

	// Table 2 totals must equal the community count over all days.
	gc, err := Table2(days, "SCANN")
	if err != nil {
		t.Fatal(err)
	}
	total := gc.GainAcc + gc.CostAcc + gc.GainRej + gc.CostRej
	want := 0
	for _, day := range days {
		want += len(day.Result.Communities)
	}
	if total != want {
		t.Errorf("table2 covers %d communities, want %d", total, want)
	}

	// Renderers must produce non-empty output.
	if RenderFig9(rows) == "" || RenderTable2(gc, "SCANN") == "" {
		t.Error("renderers empty")
	}
}

func TestFig3Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	arch := mawigen.NewArchive(78)
	arch.Duration = 45
	arch.BaseRate = 250
	res, err := Fig3(context.Background(), NewRunner(arch, suite.Standard()), testDates(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SinglesCDF) != 3 || len(res.SizeCDF) != 3 || len(res.RuleSupportCDF) != 3 || len(res.RuleDegreePMF) != 3 {
		t.Fatal("fig3 must have one series per granularity")
	}
	names := map[string]bool{}
	for _, s := range res.SinglesCDF {
		names[s.Name] = true
	}
	if !names["packet"] || !names["uniflow"] || !names["biflow"] {
		t.Errorf("granularity names missing: %v", names)
	}
	// Community sizes are > 1 by construction.
	for _, s := range res.SizeCDF {
		for _, p := range s.Points {
			if p.X <= 1 {
				t.Errorf("size CDF contains size %f", p.X)
			}
		}
	}
	// Rule degree snapped to integer bins in [0,4].
	for _, s := range res.RuleDegreePMF {
		for _, p := range s.Points {
			if p.X != float64(int(p.X)) || p.X < 0 || p.X > 4 {
				t.Errorf("rule degree bin %f", p.X)
			}
		}
	}
}

func TestFig4Monotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	arch := mawigen.NewArchive(79)
	arch.Duration = 45
	arch.BaseRate = 250
	res, err := Fig4(context.Background(), NewRunner(arch, suite.Standard()), testDates(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support.Points) == 0 || len(res.Degree.Points) == 0 {
		t.Fatal("fig4 series empty")
	}
	for _, p := range res.Support.Points {
		if p.Y < 0 || p.Y > 100 {
			t.Errorf("support %f out of range", p.Y)
		}
	}
	for _, p := range res.Degree.Points {
		if p.Y < 0 || p.Y > 4 {
			t.Errorf("degree %f out of range", p.Y)
		}
	}
}

func TestFig5Buckets(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	arch := mawigen.NewArchive(80)
	arch.Duration = 45
	arch.BaseRate = 250
	buckets, err := Fig5(context.Background(), NewRunner(arch, suite.Standard()), testDates(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) == 0 {
		t.Fatal("no fig5 buckets")
	}
	for _, b := range buckets {
		if b.Total() == 0 {
			t.Errorf("empty bucket %+v", b)
		}
		if b.SizeBucket == "1alarm" && b.Detector == "" {
			t.Error("single-community bucket must name its detector")
		}
		if b.SizeBucket != "1alarm" && b.Detector != "" {
			t.Error("multi-alarm bucket must not name a detector")
		}
	}
	if RenderFig5(buckets) == "" {
		t.Error("fig5 renderer empty")
	}
}

func TestSizeBucketAndOrder(t *testing.T) {
	cases := map[int]string{1: "1alarm", 2: "2alarms", 3: "3-4alarms", 4: "3-4alarms", 5: "5-20alarms", 20: "5-20alarms", 21: "21+alarms", 100: "21+alarms"}
	for n, want := range cases {
		if got := sizeBucket(n); got != want {
			t.Errorf("sizeBucket(%d) = %q, want %q", n, got, want)
		}
	}
	if !(bucketOrder("1alarm") < bucketOrder("2alarms") && bucketOrder("2alarms") < bucketOrder("21+alarms")) {
		t.Error("bucket order wrong")
	}
}

func TestSnapDegree(t *testing.T) {
	if snapDegree(2.4) != 2 || snapDegree(2.5) != 3 || snapDegree(-1) != 0 {
		t.Error("snapDegree wrong")
	}
}

func TestYearFraction(t *testing.T) {
	jan1 := yearFraction(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	if jan1 != 2005 {
		t.Errorf("jan1 = %f", jan1)
	}
	jul := yearFraction(time.Date(2005, 7, 2, 0, 0, 0, 0, time.UTC))
	if jul < 2005.4 || jul > 2005.6 {
		t.Errorf("mid-year = %f", jul)
	}
}

// TestDaysShardingDeterministic: the day-level worker pool must return, in
// date order, exactly what the sequential runner produces — decisions,
// reports, ratios and all.
func TestDaysShardingDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	dates := testDates(3)

	seq := testRunner()
	var want []*DayResult
	for _, d := range dates {
		day, err := seq.Day(d)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, day)
	}

	par := testRunner()
	par.Workers = 4
	got, err := par.Days(context.Background(), dates)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Days returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Date.Equal(want[i].Date) {
			t.Fatalf("day %d out of order: %v vs %v", i, got[i].Date, want[i].Date)
		}
		if !reflect.DeepEqual(want[i].Decisions, got[i].Decisions) {
			t.Errorf("day %d: decisions differ", i)
		}
		if !reflect.DeepEqual(want[i].Reports, got[i].Reports) {
			t.Errorf("day %d: reports differ", i)
		}
		if !reflect.DeepEqual(want[i].Totals, got[i].Totals) {
			t.Errorf("day %d: totals differ", i)
		}
	}

	// And RunRatios on the sharded runner agrees with the sequential one.
	seqRatios, _, err := RunRatios(context.Background(), testRunner(), dates)
	if err != nil {
		t.Fatal(err)
	}
	parRatios, _, err := RunRatios(context.Background(), par, dates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRatios, parRatios) {
		t.Error("RunRatios differs between 1 and 4 workers")
	}
}

// TestDaysCancellation: a cancelled context aborts the day-level fan-out.
func TestDaysCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := testRunner()
	r.Workers = 2
	if _, err := r.Days(ctx, testDates(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
