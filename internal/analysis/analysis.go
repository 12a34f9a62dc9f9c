// Package analysis is a self-contained static-analysis framework in
// the shape of golang.org/x/tools/go/analysis, built only on the
// standard library so the repository's invariant checkers (cmd/mbvet)
// need no network and no third-party module to build.
//
// The serving stack's load-bearing invariants — unsafe confined to
// three packages, Retain/Release pairing on mapped artifacts,
// copy-on-write before publish, zero-allocation hot paths, checked
// durability errors — were previously enforced by review and spot
// tests. The analyzers in the sibling packages (unsafeconfine,
// retainrelease, cowpublish, noalloc, durerr) machine-check them at
// vet time; this package supplies the three pieces they share:
//
//   - the Analyzer/Pass/Diagnostic surface (this file), a deliberate
//     subset of x/tools' go/analysis so the analyzers port verbatim if
//     the dependency ever becomes available;
//   - a package loader (load.go) that type-checks the module's
//     packages offline via `go list -export` and gc export data;
//   - the cmd/go unitchecker protocol (unitchecker.go) so the same
//     binary runs under `go vet -vettool=`.
//
// DESIGN.md §9 lists the enforced invariants and their annotations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker: a name for diagnostics, a
// doc string for -list output, and the Run function applied to each
// loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string
	// Doc is the one-paragraph description shown by `mbvet -list`.
	Doc string
	// Run applies the analyzer to one package unit, reporting findings
	// through pass.Reportf. A non-nil error aborts the whole run (it
	// means the analyzer itself failed, not that the code is wrong).
	Run func(*Pass) error
}

// Pass carries one type-checked package unit through one analyzer.
type Pass struct {
	// Analyzer is the checker this pass runs.
	Analyzer *Analyzer
	// Fset maps token positions of Files back to file/line/column.
	Fset *token.FileSet
	// Files are the parsed sources of the unit, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the unit's type and object resolution maps.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and emits one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PkgPath returns the unit's canonical import path: the vet variant
// suffix (" [repro/x.test]") and the external-test "_test" suffix are
// stripped, so allowlists match a package and its tests alike.
func (p *Pass) PkgPath() string {
	return CanonicalPath(p.Pkg.Path())
}

// CanonicalPath strips the test-variant decorations cmd/go and the
// loader attach to import paths.
func CanonicalPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}

// Finding is one diagnostic resolved to a concrete position, the
// runner's output unit.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// RunAnalyzers applies each analyzer to the unit and returns all
// findings sorted by position.
func RunAnalyzers(u *Unit, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			report: func(d Diagnostic) {
				out = append(out, Finding{
					Analyzer: a.Name,
					Pos:      u.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, u.Pkg.Path(), err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers need
// populated during checking.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
