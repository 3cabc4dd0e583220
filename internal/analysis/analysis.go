// Package analysis is a dependency-free reimplementation of the core
// of golang.org/x/tools/go/analysis, sized for this repository's own
// linters (cmd/silint). The build environment pins no third-party
// modules, so the x/tools framework itself cannot be vendored; the
// subset here — an Analyzer with a Run function over a type-checked
// package, a Pass carrying the ASTs and type information, and plain
// positional Diagnostics — is API-compatible in spirit, letting each
// analyzer be written exactly as it would be against the upstream
// framework (and ported to it mechanically if the dependency ever
// lands).
//
// # What the suite enforces
//
// The analyzers machine-check the read-path conventions the compiler
// cannot see (docs/LINTING.md has the catalog):
//
//   - borrowcheck: pager.ReadPage's (view, release) borrow contract,
//     and no writes into read-only views (pages, extents, Tree.Get
//     values);
//   - epochpin: epoch pin/release pairing in internal/core;
//   - ctxloop: cancellation checks inside unbounded consumption loops;
//   - nilness (lite): guaranteed nil dereferences, which plain go vet
//     does not report.
//
// Everything `go vet`'s default set already checks is left to it:
// make lint runs both.
//
// # Suppression
//
// A finding that is a considered false positive is silenced in place
// with a trailing or preceding comment naming the analyzer:
//
//	it.page, it.release = page, release //silint:ignore borrowcheck borrow parked in the iterator, dropPage releases it
//
// The justification text is mandatory: a bare ignore is itself
// reported, so every silenced finding documents why it is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check: a name (also the
// suppression key) and the Run function applied to each type-checked
// package. Its package comment documents it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //silint:ignore
	// comments. By convention lower-case, no spaces.
	Name string
	// Run applies the check to one package, reporting findings
	// through pass.Reportf.
	Run func(pass *Pass)
}

// A Pass carries one type-checked package through an Analyzer's Run:
// the file set for positions, the parsed files, the package's type
// information, and the Report sink for diagnostics.
type Pass struct {
	// Analyzer is the check being run, so shared helpers can label
	// diagnostics.
	Analyzer *Analyzer
	// Fset resolves token.Pos values in Files to file:line:column.
	Fset *token.FileSet
	// Files holds the package's parsed syntax trees, comments
	// included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo maps syntax to types, objects and selections.
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// A Diagnostic is one finding: a position, a message, and the name of
// the analyzer that produced it.
type Diagnostic struct {
	// Pos locates the finding in the Pass's file set.
	Pos token.Pos
	// Message describes the finding in one sentence.
	Message string
	// Analyzer names the producing check, for prefixing and for
	// matching //silint:ignore suppressions.
	Analyzer string
}

// Run applies analyzers to one type-checked package and returns the
// surviving findings sorted by position: suppressed findings (see
// //silint:ignore in the package comment) are filtered out, and
// malformed suppressions are reported as findings themselves.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
		})
	}
	diags = suppress(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// ignorePrefix introduces an in-source suppression comment.
const ignorePrefix = "//silint:ignore"

// suppress drops the findings covered by a //silint:ignore naming
// their analyzer on the same line or the line immediately above, and
// adds a finding for each malformed suppression (no analyzer name, or
// no justification), so an ignore can never silently rot into a
// blanket waiver.
func suppress(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	ignored := make(map[key]bool)
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed silint:ignore: want //silint:ignore <analyzer> <justification>",
						Analyzer: "silint",
					})
					continue
				}
				// A comment on its own line covers the next line; a
				// trailing comment covers its own. Cover both — the
				// ambiguity is harmless because the analyzer name
				// must still match.
				pos := fset.Position(c.Pos())
				ignored[key{pos.Filename, pos.Line, fields[0]}] = true
				ignored[key{pos.Filename, pos.Line + 1, fields[0]}] = true
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if pos := fset.Position(d.Pos); !ignored[key{pos.Filename, pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	return append(kept, malformed...)
}

// IsContext reports whether t is context.Context, the type several
// analyzers key cancellation rules on.
func IsContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
