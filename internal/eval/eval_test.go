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
	"mawilab/internal/trace"
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
	days, err := r.Days(context.Background(), testDates(1))
	if err != nil {
		t.Fatal(err)
	}
	day := days[0]
	if len(day.Communities) == 0 {
		t.Fatal("no communities on an archive day")
	}
	if len(day.Reports) != len(day.Communities) {
		t.Error("reports misaligned")
	}
	for i, c := range day.Communities {
		if c.Alarms < 1 || len(c.Detectors) < 1 || len(c.Detectors) > c.Alarms || len(c.Detectors) > len(day.Totals) {
			t.Fatalf("community %d summary %+v", i, c)
		}
	}
	for _, name := range []string{"average", "minimum", "maximum", "SCANN"} {
		dec, ok := day.Decisions[name]
		if !ok {
			t.Fatalf("missing strategy %q", name)
		}
		if len(dec) != len(day.Communities) {
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
// downstream in Ratios/Fig8-10.
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
	_, err := r.Days(context.Background(), testDates(1))
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
	_, err := r.Days(context.Background(), testDates(1))
	if err == nil || !strings.Contains(err.Error(), "truncating") || !strings.Contains(err.Error(), "decisions for") {
		t.Fatalf("err = %v, want the truncating strategy's decisions/communities mismatch", err)
	}
}

// TestDayRejectsEmptyStrategies: with no strategy there is nothing to label
// a day under, so Days fails before generating anything.
func TestDayRejectsEmptyStrategies(t *testing.T) {
	r := testRunner()
	r.Strategies = nil
	if _, err := r.Days(context.Background(), testDates(2)); !errors.Is(err, errNoStrategies) {
		t.Fatalf("err = %v, want errNoStrategies", err)
	}
}

// TestRunnerDayMatchesGolden ties the figures to the end-to-end fixture: a
// Runner over the golden archive day must serve the reports whose CSV the
// root package's TestPipelineGolden pins, whatever the runner's Workers.
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
		days, err := r.Days(context.Background(), []time.Time{time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var csv bytes.Buffer
		if err := wirev1.WriteCSV(&csv, days[0].Reports); err != nil {
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
	days, err := r.Days(context.Background(), dates)
	if err != nil {
		t.Fatal(err)
	}
	ratios := Ratios(days)
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
		want += len(day.Communities)
	}
	if total != want {
		t.Errorf("table2 covers %d communities, want %d", total, want)
	}

	// Renderers must produce non-empty output.
	if RenderFig9(rows) == "" || RenderTable2(gc, "SCANN") == "" {
		t.Error("renderers empty")
	}

	// The headline on these three days, pinned: SCANN's accepted Attack
	// communities against the detector with the highest mean attack ratio.
	h, err := NewHeadline(days, "SCANN")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Headline{Accepted: 10, Detector: "hough", DetectorAccepted: 10}); h != want {
		t.Errorf("headline = %+v, want %+v", h, want)
	}
	if h.Accepted != scann.Total {
		t.Errorf("headline SCANN count %d, Fig 9 row %d", h.Accepted, scann.Total)
	}
}

// synthDay is a hand-built labeled day: community i has the given class,
// was reported by dets[i] and is accepted under "SCANN" when acc[i].
func synthDay(classes []heuristics.Class, dets [][]string, acc []bool) *DayResult {
	day := &DayResult{
		Date:      time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC),
		Totals:    map[string]int{"a": 1, "b": 1, "c": 1},
		Decisions: map[string][]core.Decision{"SCANN": make([]core.Decision, len(classes))},
	}
	for i, cls := range classes {
		day.Reports = append(day.Reports, core.CommunityReport{Class: cls})
		day.Communities = append(day.Communities, CommunitySummary{Alarms: len(dets[i]), Detectors: dets[i]})
		day.Decisions["SCANN"][i].Accepted = acc[i]
	}
	return day
}

// TestHeadlineMostAccurateDetector: the headline compares SCANN with the
// detector of the highest mean attack ratio, not the broadest one, and a
// tie resolves to the first detector in sorted order.
func TestHeadlineMostAccurateDetector(t *testing.T) {
	A, U := heuristics.Attack, heuristics.Unknown
	// "a" reports everything (ratio 2/4); "b" and "c" report one Attack
	// each (ratio 1) and tie.
	day := synthDay([]heuristics.Class{A, A, U, U},
		[][]string{{"a", "c"}, {"a", "b"}, {"a"}, {"a"}},
		[]bool{true, true, true, false})
	h, err := NewHeadline([]*DayResult{day}, "SCANN")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Headline{Accepted: 2, Detector: "b", DetectorAccepted: 1}); h != want {
		t.Fatalf("headline = %+v, want %+v", h, want)
	}
	if got := RenderHeadline(Headline{Accepted: 2, Detector: "b", DetectorAccepted: 1}); !strings.Contains(got, "SCANN accepted 2 Attack communities vs most-accurate detector b=1 (×2.00") {
		t.Errorf("rendered %q", got)
	}
	if got := RenderHeadline(Headline{Accepted: 2, Detector: "b"}); got != "" {
		t.Errorf("a detector with nothing accepted renders %q, want nothing", got)
	}
}

// TestUnknownStrategyIsAnError: a strategy the days were not classified
// under is an error from every strategy-keyed figure, not an empty one.
func TestUnknownStrategyIsAnError(t *testing.T) {
	days := []*DayResult{synthDay([]heuristics.Class{heuristics.Attack}, [][]string{{"a"}}, []bool{true})}
	checks := map[string]func() error{
		"Fig8":        func() error { _, err := Fig8(days, "scann", "a"); return err },
		"Fig9":        func() error { _, err := Fig9(days, "scann"); return err },
		"Fig10":       func() error { _, err := Fig10(days, "scann"); return err },
		"Table2":      func() error { _, err := Table2(days, "scann"); return err },
		"NewHeadline": func() error { _, err := NewHeadline(days, "scann"); return err },
	}
	for name, check := range checks {
		if err := check(); err == nil || !strings.Contains(err.Error(), `no "scann" decisions`) {
			t.Errorf("%s: err = %v, want the missing strategy named", name, err)
		}
	}
	if _, err := Fig9(days, "SCANN"); err != nil {
		t.Errorf("Fig9 under the day's own strategy: %v", err)
	}
}

// TestFig3NeedsEveryGranularity: Fig. 3 compares three granularities, so a
// missing day set is an error rather than a silently absent series.
func TestFig3NeedsEveryGranularity(t *testing.T) {
	_, err := Fig3(map[trace.Granularity][]*DayResult{trace.GranPacket: nil, trace.GranUniFlow: nil})
	if err == nil || !strings.Contains(err.Error(), "biflow") {
		t.Fatalf("err = %v, want the missing biflow day set named", err)
	}
	res, err := Fig3(map[trace.Granularity][]*DayResult{trace.GranPacket: nil, trace.GranUniFlow: nil, trace.GranBiFlow: nil})
	if err != nil || len(res.SinglesCDF) != 3 {
		t.Fatalf("empty day sets: %v, %+v", err, res)
	}
}

func TestFig3Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	arch := mawigen.NewArchive(78)
	arch.Duration = 45
	arch.BaseRate = 250
	r := NewRunner(arch, suite.Standard())
	byGran := make(map[trace.Granularity][]*DayResult)
	for _, g := range Fig3Granularities {
		days, err := r.AtGranularity(g).Days(context.Background(), testDates(2))
		if err != nil {
			t.Fatal(err)
		}
		byGran[g] = days
	}
	res, err := Fig3(byGran)
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
	days, err := NewRunner(arch, suite.Standard()).Days(context.Background(), testDates(2))
	if err != nil {
		t.Fatal(err)
	}
	res := Fig4(days)
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
	days, err := NewRunner(arch, suite.Standard()).Days(context.Background(), testDates(2))
	if err != nil {
		t.Fatal(err)
	}
	buckets := Fig5(days)
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
// reports, community summaries, ratios and all.
func TestDaysShardingDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	dates := testDates(3)

	seq := testRunner()
	var want []*DayResult
	for _, d := range dates {
		days, err := seq.Days(context.Background(), []time.Time{d})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, days...)
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
		if !reflect.DeepEqual(want[i].Communities, got[i].Communities) {
			t.Errorf("day %d: community summaries differ", i)
		}
	}

	// And the ratios folded from the sharded days agree with the sequential.
	if !reflect.DeepEqual(Ratios(want), Ratios(got)) {
		t.Error("Ratios differs between 1 and 4 workers")
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
