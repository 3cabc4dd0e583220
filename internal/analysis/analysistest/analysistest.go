// Package analysistest runs silint analyzers over fixture packages,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixtures live
// under the analyzer's testdata/src/<pkg>/, and every expected finding
// is annotated in place with a trailing comment of the form
//
//	v, release, err := f.ReadPage(1) // want `release not called`
//
// where each backquoted string is a regular expression that must match
// a diagnostic reported on that line. Lines without a want comment must
// produce no diagnostics, so each fixture is simultaneously the
// positive and the negative suite for its analyzer.
//
// A fixture's package path is its directory under testdata/src, so a
// fixture at testdata/src/repro/internal/btree stands in for that
// package where an analyzer matches by import path. Fixtures are parsed
// and type-checked from source with the stdlib source importer, so they
// may import standard-library packages but nothing outside GOROOT.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads each fixture package under dir (conventionally
// "testdata/src") and checks the analyzer's findings against the
// fixtures' want annotations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			runPackage(t, dir, pkg, a)
		})
	}
}

// runPackage type-checks the fixture package at path under src and
// diffs diagnostics against the want annotations.
func runPackage(t *testing.T, src, path string, a *analysis.Analyzer) {
	t.Helper()
	dir := filepath.Join(src, path)
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	checkWants(t, fset, files, analysis.Run(fset, files, pkg, info, []*analysis.Analyzer{a}))
}

// parseDir parses every .go file in dir, comments included.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return files, nil
}

// expectation is one want regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// checkWants matches diagnostics against the fixtures' want comments,
// failing on any unmatched diagnostic or unsatisfied expectation.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWant(t, fset, c)...)
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// wantRe splits a want comment's payload into backquoted regexps.
var wantRe = regexp.MustCompile("`[^`]*`")

// parseWant extracts the expectations from one comment, if it is a
// want comment.
func parseWant(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	text, ok := strings.CutPrefix(c.Text, "// want ")
	if !ok {
		return nil
	}
	pos := fset.Position(c.Pos())
	var out []*expectation
	for _, q := range wantRe.FindAllString(text, -1) {
		pat := strings.Trim(q, "`")
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment with no pattern", pos)
	}
	return out
}
