package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// demo reports one finding per function declaration, so suppression
// behavior can be observed without type information.
var demo = &analysis.Analyzer{
	Name: "demo",
	Run: func(pass *analysis.Pass) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "func %s", fd.Name.Name)
				}
			}
		}
	},
}

func TestSuppression(t *testing.T) {
	src := `package p

func a() {}

//silint:ignore demo covered: the comment line above suppresses
func b() {}

func c() {} //silint:ignore demo trailing comment suppresses

func d() {} //silint:ignore other wrong analyzer does not suppress

//silint:ignore demo
func e() {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(fset, []*ast.File{file}, nil, nil, []*analysis.Analyzer{demo})
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	want := map[string]bool{
		"demo: func a": true,  // no suppression
		"demo: func b": false, // comment on the line above
		"demo: func c": false, // trailing comment
		"demo: func d": true,  // analyzer name mismatch
		"demo: func e": true,  // malformed ignore suppresses nothing
	}
	for msg, expect := range want {
		found := false
		for _, g := range got {
			if g == msg {
				found = true
			}
		}
		if found != expect {
			t.Errorf("%q reported=%v, want %v (all: %v)", msg, found, expect, got)
		}
	}
	malformed := 0
	for _, g := range got {
		if strings.Contains(g, "malformed silint:ignore") {
			malformed++
		}
	}
	if malformed != 1 {
		t.Errorf("malformed-ignore findings = %d, want 1 (all: %v)", malformed, got)
	}
}

func TestDiagnosticsSorted(t *testing.T) {
	src := "package p\n\nfunc z() {}\n\nfunc y() {}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(fset, []*ast.File{file}, nil, nil, []*analysis.Analyzer{demo})
	if len(diags) != 2 || diags[0].Pos >= diags[1].Pos {
		t.Fatalf("diagnostics not position-sorted: %+v", diags)
	}
}
