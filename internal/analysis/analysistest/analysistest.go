// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixture
// source, in the style of golang.org/x/tools' package of the same
// name: a comment "// want `regex`" (or several, space-separated) on a
// line declares that the analyzer must report on that line with a
// message matching each regex; any diagnostic on a line without a
// matching want, and any want without a matching diagnostic, fails the
// test.
package analysistest

import (
	"go/token"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRe extracts the backquoted regexes of one want comment.
var wantRe = regexp.MustCompile("`([^`]*)`")

// expectation is one "// want" entry: a line that must receive a
// diagnostic matching re.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture package rooted at dir, type-checks it under
// the import path pkgPath, applies the analyzer, and matches the
// diagnostics against the fixture's want comments.
func Run(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	u, err := analysis.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings, err := analysis.RunAnalyzers(u, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	wants := collectWants(t, u)
	for _, f := range findings {
		if !match(wants, f.Pos, f.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants scans every comment in the unit for want expectations.
func collectWants(t *testing.T, u *analysis.Unit) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// A want expectation is its own comment: "// want `re`" or,
				// for lines whose line comment is load-bearing (pragmas),
				// "/* want `re` */" preceding it.
				text := c.Text
				if strings.HasPrefix(text, "/*") {
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				} else {
					text = strings.TrimPrefix(text, "//")
				}
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(text[idx:], -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q (expected backquoted regexes)", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// match marks and reports the first unhit expectation covering the
// diagnostic's line.
func match(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}
