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
//   - borrowcheck: pager.ReadPage's (view, release) borrow contract;
//   - epochpin: epoch pin/release pairing in internal/core;
//   - ctxloop: cancellation checks inside unbounded consumption loops;
//   - lostcancel / nilness (lite): the two extra go vet passes CI
//     forces beyond the default set.
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

// An Analyzer describes one static check: a name (also the silint flag
// and the suppression key), a short doc string, and the Run function
// applied to each type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags and
	// //silint:ignore comments. By convention lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description; its first line is the
	// summary shown by silint -flags usage text.
	Doc string
	// Run applies the check to one package, reporting findings
	// through pass.Report. It returns an error only for internal
	// failures, never for findings.
	Run func(pass *Pass) error
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
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	diags = append(diags, filterSuppressed(fset, files, &diags)...)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ignorePrefix introduces an in-source suppression comment.
const ignorePrefix = "//silint:ignore"

// suppression is one parsed //silint:ignore comment: the line it
// covers and the analyzers it silences.
type suppression struct {
	analyzers map[string]bool
}

// filterSuppressed removes findings covered by a //silint:ignore on
// the same line or the line immediately above, rewriting diags in
// place. It returns extra findings for malformed suppressions (no
// analyzer name, or no justification), so an ignore can never silently
// rot into a blanket waiver.
func filterSuppressed(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) []Diagnostic {
	var malformed []Diagnostic
	// file -> covered line -> suppression
	byLine := make(map[string]map[int]suppression)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed silint:ignore: want //silint:ignore <analyzer> <justification>",
						Analyzer: "silint",
					})
					continue
				}
				m := byLine[pos.Filename]
				if m == nil {
					m = make(map[int]suppression)
					byLine[pos.Filename] = m
				}
				// A comment on its own line covers the next line; a
				// trailing comment covers its own. Cover both — the
				// ambiguity is harmless because the analyzer name
				// must still match.
				sup := suppression{analyzers: map[string]bool{fields[0]: true}}
				for line := pos.Line; line <= pos.Line+1; line++ {
					if prev, ok := m[line]; ok {
						prev.analyzers[fields[0]] = true
					} else {
						m[line] = suppression{analyzers: copySet(sup.analyzers)}
					}
				}
			}
		}
	}
	kept := (*diags)[:0]
	for _, d := range *diags {
		pos := fset.Position(d.Pos)
		if m, ok := byLine[pos.Filename]; ok {
			if sup, ok := m[pos.Line]; ok && sup.analyzers[d.Analyzer] {
				continue
			}
		}
		kept = append(kept, d)
	}
	*diags = kept
	return malformed
}

// copySet clones a string set so per-line suppressions stay
// independent.
func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
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
