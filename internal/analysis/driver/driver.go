// Package driver is mawilint's policy layer: it runs a set of analyzers
// over loaded packages, applies the per-analyzer exemption config, and
// enforces the suppression-comment grammar.
//
// Suppressions are explicit and auditable. The only accepted form is
//
//	code()  //mawilint:allow <analyzer> — <reason>
//
// (an ASCII "--" separator also works). The directive covers its own
// source line and the line directly below it, so it can trail the flagged
// statement or sit on its own line above. A directive with no reason, an
// unknown analyzer name, or one that matches no diagnostic is itself a
// finding — stale or unexplained allows fail the lint run exactly like
// the hazards they once excused.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"mawilab/internal/analysis"
	"mawilab/internal/analysis/load"
)

// Config says which analyzers skip which import paths entirely.
type Config struct {
	// Exempt maps analyzer name → the packages it does not run on, written
	// as go list patterns: an import path names that one package, and a
	// trailing "/..." names the package and every package below it.
	Exempt map[string][]string
}

// exempt reports whether analyzer a skips package path under cfg.
func (c Config) exempt(a, path string) bool {
	for _, pattern := range c.Exempt[a] {
		root, tree := strings.CutSuffix(pattern, "/...")
		if path == root || tree && strings.HasPrefix(path, root+"/") {
			return true
		}
	}
	return false
}

// directive is one parsed mawilint:allow comment.
type directive struct {
	file     string
	line     int
	analyzer string
	used     bool
}

// directiveRE captures the analyzer name and the mandatory reason. The
// separator is an em dash or "--"; the reason must be non-empty.
var directiveRE = regexp.MustCompile(`^//mawilint:allow\s+([a-z][a-z0-9]*)\s+(?:—|--)\s*(\S.*)$`)

// prefix every mawilint directive starts with; anything else after it is
// a grammar error, reported rather than ignored so typos cannot silently
// disable nothing.
const directivePrefix = "//mawilint:"

// parseDirectives extracts every suppression directive in the package and
// reports grammar violations as unsuppressable "mawilint" diagnostics.
func parseDirectives(pkg *load.Package, known map[string]bool) ([]*directive, []analysis.Diagnostic) {
	var dirs []*directive
	var diags []analysis.Diagnostic
	bad := func(c *ast.Comment, format string, args ...any) {
		diags = append(diags, analysis.Diagnostic{
			Pos:      pkg.Fset.Position(c.Pos()),
			Analyzer: "mawilint",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				m := directiveRE.FindStringSubmatch(strings.TrimRight(c.Text, " \t"))
				if m == nil {
					bad(c, "malformed mawilint directive; the only form is //mawilint:allow <analyzer> — <reason>")
					continue
				}
				if !known[m[1]] {
					bad(c, "mawilint:allow names unknown analyzer %q", m[1])
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				dirs = append(dirs, &directive{file: pos.Filename, line: pos.Line, analyzer: m[1]})
			}
		}
	}
	return dirs, diags
}

// Run executes every non-exempt analyzer over every package, applies
// suppressions, and returns the surviving diagnostics deduplicated and
// sorted by position.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer, cfg Config) ([]analysis.Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		dirs, grammarDiags := parseDirectives(pkg, known)
		all = append(all, grammarDiags...)
		ran := map[string]bool{}
		var found []analysis.Diagnostic
		for _, a := range analyzers {
			if cfg.exempt(a.Name, pkg.ImportPath) {
				continue
			}
			ran[a.Name] = true
			pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			found = append(found, pass.Diagnostics()...)
		}
		for _, d := range found {
			if !suppressed(d, dirs) {
				all = append(all, d)
			}
		}
		for _, dir := range dirs {
			if dir.used {
				continue
			}
			msg := fmt.Sprintf("mawilint:allow %s matched no diagnostic; delete the stale directive", dir.analyzer)
			if !ran[dir.analyzer] {
				msg = fmt.Sprintf("mawilint:allow %s is redundant: the analyzer is exempt for %s by config", dir.analyzer, pkg.ImportPath)
			}
			all = append(all, analysis.Diagnostic{
				Pos:      token.Position{Filename: dir.file, Line: dir.line, Column: 1},
				Analyzer: "mawilint",
				Message:  msg,
			})
		}
	}
	return dedupeSort(all), nil
}

// suppressed marks and consumes the first directive covering d.
func suppressed(d analysis.Diagnostic, dirs []*directive) bool {
	for _, dir := range dirs {
		if dir.analyzer != d.Analyzer || dir.file != d.Pos.Filename {
			continue
		}
		if d.Pos.Line == dir.line || d.Pos.Line == dir.line+1 {
			dir.used = true
			return true
		}
	}
	return false
}

// dedupeSort removes exact duplicates (one hazard can sit in two
// overlapping unordered regions) and orders diagnostics by position.
func dedupeSort(diags []analysis.Diagnostic) []analysis.Diagnostic {
	seen := map[string]bool{}
	out := diags[:0]
	for _, d := range diags {
		key := d.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
