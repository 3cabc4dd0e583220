// Package driver runs the silint analyzers under `go vet -vettool`,
// speaking the vet tool protocol that cmd/go uses to drive an external
// checker (the protocol golang.org/x/tools/go/analysis/unitchecker
// implements; reimplemented here because x/tools is not an available
// dependency):
//
//  1. `silint -flags` prints the tool's flag set as JSON, which go vet
//     merges into its own flag handling. silint has no flags of its
//     own, so it prints [];
//  2. for each package, cmd/go writes a vet.cfg JSON file — source
//     file lists, the import map, and the compiled export data of
//     every dependency — and invokes `silint [flags] path/to/vet.cfg`
//     in the package directory;
//  3. the tool type-checks the package against the export data, runs
//     its analyzers, prints findings to stderr as file:line:col
//     messages, and exits 2 when there were any (nonzero fails the
//     vet run — the gate is fail-closed);
//  4. a run with VetxOnly (a dependency vetted only for facts) writes
//     the facts output and reports nothing. The silint analyzers are
//     all package-local, so the facts file is always empty.
//
// Every run applies every analyzer: the only waiver is a justified
// //silint:ignore in the source.
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

// Config is the subset of cmd/go's vet config (see buildVetConfig in
// cmd/go/internal/work) that silint consumes.
type Config struct {
	// Compiler is "gc" (used for types.Sizes selection).
	Compiler string
	// ImportPath is the canonical package path.
	ImportPath string
	// GoFiles are the package's Go sources, absolute.
	GoFiles []string
	// ImportMap maps source-level import paths to canonical package
	// paths.
	ImportMap map[string]string
	// PackageFile maps canonical package paths to files holding their
	// export data.
	PackageFile map[string]string
	// VetxOnly means this run only feeds facts to later runs; silint
	// has no cross-package facts, so it just writes the output stub.
	VetxOnly bool
	// VetxOutput is where the (empty) facts file goes.
	VetxOutput string
	// GoVersion is the package's language version.
	GoVersion string
	// SucceedOnTypecheckFailure makes type-check errors exit 0, the
	// protocol's escape hatch for packages that do not compile.
	SucceedOnTypecheckFailure bool
}

// Main is the silint entry point: protocol flags, then one vet.cfg
// unit run through every analyzer. It returns the process exit code.
func Main(analyzers []*analysis.Analyzer) int {
	printFlags := flag.Bool("flags", false, "print the tool's flags as JSON (vet tool protocol)")
	version := flag.String("V", "", "print version and exit (vet tool protocol; use -V=full)")
	flag.Parse()

	if *version != "" {
		// cmd/go parses this as `<name> version devel ... buildID=<id>`
		// and folds the id into its vet cache key, so the id must
		// change when the tool's binary does: hash the executable.
		fmt.Printf("silint version devel buildID=%s\n", selfID())
		return 0
	}
	if *printFlags {
		fmt.Println("[]")
		return 0
	}
	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: silint [flags] vet.cfg  (run via: go vet -vettool=$(command -v silint) ./...)")
		return 1
	}
	return RunUnit(args[0], analyzers, os.Stderr)
}

// selfID returns a content hash of the running executable, so the vet
// cache key changes whenever the analyzers are rebuilt. Failure to read
// the binary falls back to a constant (worst case: stale cache until
// `go clean -cache`).
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// RunUnit executes analyzers over the unit described by the vet config
// at cfgPath, writing findings to diagOut. It returns the process exit
// code: 0 clean, 1 internal error, 2 findings.
func RunUnit(cfgPath string, analyzers []*analysis.Analyzer, diagOut io.Writer) int {
	cfg, err := readConfig(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "silint: %v\n", err)
		return 1
	}
	// Facts output first: cmd/go may cache it, and silint's analyzers
	// are package-local so it is always empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "silint: writing facts: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "silint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}
	pkg, info, err := typeCheck(cfg, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "silint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags := analysis.Run(fset, files, pkg, info, analyzers)
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(diagOut, "%s: %s (silint/%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return 2
}

// readConfig loads and decodes one vet.cfg.
func readConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("%s: no Go files to analyze", path)
	}
	return cfg, nil
}

// typeCheck checks the parsed files against the config's export data.
func typeCheck(cfg *Config, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if p, ok := cfg.ImportMap[path]; ok {
			path = p
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{
		Importer:  importer.ForCompiler(fset, compiler, lookup),
		GoVersion: cfg.GoVersion,
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
