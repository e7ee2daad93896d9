package driver_test

import (
	"strings"
	"testing"

	"mawilab/internal/analysis"
	"mawilab/internal/analysis/atest"
	"mawilab/internal/analysis/driver"
	"mawilab/internal/analysis/load"
	"mawilab/internal/analysis/registry"
	"mawilab/internal/analysis/wallclock"
)

// runOn stages the fixture in dir at importPath and runs the given
// analyzers under cfg.
func runOn(t *testing.T, dir, importPath string, as []*analysis.Analyzer, cfg driver.Config) []analysis.Diagnostic {
	t.Helper()
	pkg := atest.LoadDir(t, dir, importPath)
	diags, err := driver.Run([]*load.Package{pkg}, as, cfg)
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	return diags
}

func countContaining(diags []analysis.Diagnostic, sub string) int {
	n := 0
	for _, d := range diags {
		if strings.Contains(d.String(), sub) {
			n++
		}
	}
	return n
}

func dump(t *testing.T, diags []analysis.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		t.Logf("  %s", d)
	}
}

// TestSuppressionForms: a reasoned directive — trailing or on the line
// above — silences the diagnostic and registers as used.
func TestSuppressionForms(t *testing.T) {
	diags := runOn(t, "testdata/suppressed", "fixture/suppressed",
		[]*analysis.Analyzer{wallclock.Analyzer}, driver.Config{})
	if len(diags) != 0 {
		dump(t, diags)
		t.Fatalf("suppressed fixture produced %d diagnostics, want 0", len(diags))
	}
}

// TestGrammarRejections: a directive with no separator or no reason is
// malformed, an unknown analyzer name is rejected, and in every case the
// wallclock diagnostic the directive tried to excuse still surfaces.
func TestGrammarRejections(t *testing.T) {
	diags := runOn(t, "testdata/badgrammar", "fixture/badgrammar",
		[]*analysis.Analyzer{wallclock.Analyzer}, driver.Config{})
	if got := countContaining(diags, "malformed mawilint directive"); got != 2 {
		dump(t, diags)
		t.Errorf("malformed-directive diagnostics = %d, want 2", got)
	}
	if got := countContaining(diags, `unknown analyzer "nosuchcheck"`); got != 1 {
		dump(t, diags)
		t.Errorf("unknown-analyzer diagnostics = %d, want 1", got)
	}
	if got := countContaining(diags, "time.Now reads the wall clock"); got != 3 {
		dump(t, diags)
		t.Errorf("surviving wallclock diagnostics = %d, want 3 (rejected directives must not suppress)", got)
	}
}

// TestStaleDirective: a well-formed directive that matches no diagnostic
// is itself a finding.
func TestStaleDirective(t *testing.T) {
	diags := runOn(t, "testdata/unused", "fixture/unused",
		[]*analysis.Analyzer{wallclock.Analyzer}, driver.Config{})
	if len(diags) != 1 || !strings.Contains(diags[0].String(), "matched no diagnostic") {
		dump(t, diags)
		t.Fatalf("stale directive: got %d diagnostics, want exactly the stale-directive finding", len(diags))
	}
}

// TestRedundantDirectiveUnderExemption: when config already exempts the
// analyzer for the package, an allow directive is reported as redundant
// rather than stale.
func TestRedundantDirectiveUnderExemption(t *testing.T) {
	cfg := driver.Config{Exempt: map[string][]string{"wallclock": {"fixture/unused"}}}
	diags := runOn(t, "testdata/unused", "fixture/unused",
		[]*analysis.Analyzer{wallclock.Analyzer}, cfg)
	if len(diags) != 1 || !strings.Contains(diags[0].String(), "redundant: the analyzer is exempt") {
		dump(t, diags)
		t.Fatalf("redundant directive: got %d diagnostics, want exactly the redundancy finding", len(diags))
	}
}

// TestDefaultExemptions stages the same violation under exempt and
// covered import paths and checks registry.DefaultConfig draws the line
// where the determinism contract does: serve/eval and the mains observe;
// trace and serve's wire encoders must not. A bare entry exempts one
// package, a "/..." entry its subtree.
func TestDefaultExemptions(t *testing.T) {
	cfg := registry.DefaultConfig()
	for _, tc := range []struct {
		importPath string
		want       int
	}{
		{"mawilab/internal/serve", 0},
		{"mawilab/internal/serve/sub", 1},
		{"mawilab/internal/serve/v1", 1},
		{"mawilab/internal/eval", 0},
		{"mawilab/cmd", 0},
		{"mawilab/cmd/mawilabd", 0},
		{"mawilab/internal/trace", 1},
	} {
		diags := runOn(t, "testdata/exempt", tc.importPath, registry.Analyzers(), cfg)
		if len(diags) != tc.want {
			dump(t, diags)
			t.Errorf("at %s: %d diagnostics, want %d", tc.importPath, len(diags), tc.want)
		}
	}
}
