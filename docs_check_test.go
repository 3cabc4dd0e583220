// Documentation checks, run as part of the normal test suite and by
// the CI docs job (`make docs-check`): every relative link in the
// repository's markdown must resolve, every markdown file a Go comment
// cites must exist, and every exported identifier must carry a doc
// comment so the packages read correctly on pkg.go.dev.
package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// exportedReceiver reports whether a method's receiver names an
// exported type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		case *ast.Ident:
			return t.IsExported()
		default:
			return true // unrecognized shape: stay strict
		}
	}
}

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// requiredDocs is the documentation set every checkout must carry; a
// doc silently dropped in a refactor fails the suite rather than
// leaving dangling prose references.
var requiredDocs = []string{
	"README.md",
	"docs/ARCHITECTURE.md",
	"docs/LINTING.md",
	"docs/QUERY_SYNTAX.md",
	"docs/SEGMENTS.md",
}

// requiredSections are headings prose elsewhere links to or leans on;
// renaming one must update the anchor and this list together, not
// silently break the cross-references.
var requiredSections = map[string][]string{
	"docs/ARCHITECTURE.md": {
		"## Planning & statistics",
		"## Read path & memory model",
		"## Segments, generations and live updates",
	},
	"docs/LINTING.md": {
		"## The analyzers",
		"## Silencing a finding",
	},
}

// TestRequiredDocsExist asserts the core documentation files exist,
// are non-empty, and carry the load-bearing section headings.
func TestRequiredDocsExist(t *testing.T) {
	for _, doc := range requiredDocs {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Errorf("required doc %s: %v", doc, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("required doc %s is empty", doc)
		}
	}
	for doc, sections := range requiredSections {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("required doc %s: %v", doc, err)
			continue
		}
		for _, heading := range sections {
			if !strings.Contains(string(raw), heading+"\n") {
				t.Errorf("required doc %s lost its %q section", doc, heading)
			}
		}
	}
}

// testName matches the Go test, benchmark and fuzz function names prose
// cites as evidence.
var testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)

// funcDecl matches top-level function declarations in Go source.
var funcDecl = regexp.MustCompile(`(?m)^func (\w+)\(`)

// TestInvariantsNameTests keeps ARCHITECTURE.md's "Invariants worth
// knowing" honest: every entry must cite at least one test, and every
// cited test must still exist — an invariant whose test was deleted or
// renamed is a claim nothing checks.
func TestInvariantsNameTests(t *testing.T) {
	raw, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "## Invariants worth knowing\n")
	if !ok {
		t.Fatal("docs/ARCHITECTURE.md lost its invariants section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	defined := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range strings.Split(section, "\n- ")[1:] {
		title, _, _ := strings.Cut(entry, "**:")
		cited := testName.FindAllString(entry, -1)
		if len(cited) == 0 {
			t.Errorf("invariant %q names no test", title)
		}
		for _, name := range cited {
			if !defined[name] {
				t.Errorf("invariant %q cites %s, which no _test.go file defines", title, name)
			}
		}
	}
}

// TestDocLinks walks every *.md file in the repository and asserts
// that each relative link target exists on disk.
func TestDocLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; a network link checker is out of scope for CI
			}
			if strings.HasPrefix(target, "#") {
				continue // intra-document anchor
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				// Relative links into the repository from badge-style
				// paths (../../actions/...) point at the forge UI, not
				// the tree; tolerate links that escape the repo root.
				if rel, rerr := filepath.Rel(".", resolved); rerr == nil && strings.HasPrefix(rel, "..") {
					continue
				}
				t.Errorf("%s: broken link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}

// mdCite matches a markdown file named in prose, such as
// docs/LINTING.md or ARCHITECTURE.md.
var mdCite = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestGoCommentsCiteExistingDocs parses every Go file and fails on a
// comment naming a markdown file the repository does not have, so no
// comment sends its reader to a document that was never written or has
// since been deleted. A name resolves against the citing file's
// directory, the repository root or docs/.
func TestGoCommentsCiteExistingDocs(t *testing.T) {
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, cg := range f.Comments {
			for _, name := range mdCite.FindAllString(cg.Text(), -1) {
				if strings.HasPrefix(name, "/") {
					continue // the path of a URL
				}
				if !exists(filepath.Join(filepath.Dir(path), name)) && !exists(name) && !exists(filepath.Join("docs", name)) {
					t.Errorf("%s: comment cites %s, which does not exist", fset.Position(cg.Pos()), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExportedDocs parses every non-test Go file and asserts each
// exported top-level identifier — types, funcs, methods, consts, vars
// — has a doc comment (a group comment covers its members), and that
// every package has a package comment.
func TestExportedDocs(t *testing.T) {
	fset := token.NewFileSet()
	pkgDoc := map[string]bool{}  // package dir -> has package comment
	pkgSeen := map[string]bool{} // package dir -> has any file
	var missing []string

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dir := filepath.Dir(path)
		pkgSeen[dir] = true
		if f.Doc != nil {
			pkgDoc[dir] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				// Methods on unexported types are not part of the API
				// surface (sort.Interface impls and the like).
				if decl.Recv != nil && !exportedReceiver(decl.Recv) {
					continue
				}
				if decl.Name.IsExported() && decl.Doc == nil {
					missing = append(missing, fmt.Sprintf("%s: func %s", path, decl.Name.Name))
				}
			case *ast.GenDecl:
				hasGroupDoc := decl.Doc != nil
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() && !hasGroupDoc && spec.Doc == nil {
							missing = append(missing, fmt.Sprintf("%s: type %s", path, spec.Name.Name))
						}
					case *ast.ValueSpec:
						if hasGroupDoc || spec.Doc != nil || spec.Comment != nil {
							continue
						}
						for _, name := range spec.Names {
							if name.IsExported() {
								missing = append(missing, fmt.Sprintf("%s: %s", path, name.Name))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range pkgSeen {
		if !pkgDoc[dir] {
			missing = append(missing, fmt.Sprintf("%s: no package comment in any file", dir))
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifiers lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}
