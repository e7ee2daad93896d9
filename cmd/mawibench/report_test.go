package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func fakeRun(opS, dup float64) []*result {
	r := newResult("serve_mixed")
	r.Ops, r.SetupS, r.OpS, r.OpsPerS = 100, 2, opS, 400
	r.Named["read_s"], r.Named["dup_s"] = opS, dup
	return []*result{r}
}

func TestSpreadsJudgeGatedAndNamedMetricsAgainstTheirBounds(t *testing.T) {
	// op_s spreads (1.4−1.0)/1.2 = 0.33 over two runs: beyond the gate's 0.25
	// and read_s's own 0.15. dup_s does not move at all.
	rows := spreads([][]*result{fakeRun(1.0, 0.01), fakeRun(1.4, 0.01)})
	byMetric := make(map[string]spreadRow)
	for _, row := range rows {
		if row.Workload != "serve_mixed" {
			t.Errorf("row for %q", row.Workload)
		}
		byMetric[row.Metric] = row
	}
	if r := byMetric["op_s"]; !r.Gated || r.Within || !near(r.Median, 1.2) || !near(r.Spread, 0.4/1.2) {
		t.Errorf("op_s row = %+v", r)
	}
	if r := byMetric["read_s"]; r.Gated || r.Within || r.Bound != 0.15 {
		t.Errorf("read_s row = %+v", r)
	}
	if r := byMetric["dup_s"]; r.Gated || !r.Within || r.Spread != 0 {
		t.Errorf("dup_s row = %+v", r)
	}
	if r := byMetric["setup_s"]; !r.Gated || !r.Within {
		t.Errorf("setup_s row = %+v", r)
	}
	if _, ok := byMetric["day_label_s"]; ok {
		t.Error("a metric no run measured got a row")
	}
}

func TestPrintResultShowsFailuresAndNotes(t *testing.T) {
	r := fakeRun(1, 0.01)[0]
	r.fail(errors.New("served csv differs"))
	r.note("only %d uploads", 3)
	r.Samples["read_s"] = summarize([]float64{1, 2, 3})
	var out bytes.Buffer
	printResult(&out, r)
	for _, want := range []string{
		"serve_mixed: ops=100 failed=1", "FAILED OP: served csv differs", "note: only 3 uploads",
		"samples read_s", "n=3 median=2", "op_s", "1/s",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestBlockRateIgnoresASlowStretch(t *testing.T) {
	// 1000 completions a millisecond apart, except that one block's worth in
	// the middle took ten times as long.
	var done []float64
	at := 0.0
	for i := 0; i < 1000; i++ {
		step := 0.001
		if i >= 400 && i < 600 {
			step = 0.010
		}
		at += step
		done = append(done, at)
	}
	if got := blockRate(done, at); got < 970 || got > 1000 {
		t.Errorf("blockRate = %v, want close to the undisturbed 1000/s (the mean is %v)", got, 1000/at)
	}
	if got := blockRate(done[:250], done[249]); !near(got, 250/done[249]) {
		t.Errorf("a run of one block = %v, want completions ÷ seconds", got)
	}
}
