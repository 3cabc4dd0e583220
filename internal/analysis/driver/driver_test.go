package driver_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

func TestRunUnitMissingConfig(t *testing.T) {
	var out bytes.Buffer
	if code := driver.RunUnit(filepath.Join(t.TempDir(), "absent.cfg"), nil, &out); code != 1 {
		t.Fatalf("exit = %d, want 1 for a missing config", code)
	}
}

func TestRunUnitRejectsEmptyConfig(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "vet.cfg")
	if err := os.WriteFile(cfg, []byte(`{"ID":"p"}`), 0o666); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := driver.RunUnit(cfg, []*analysis.Analyzer{}, &out); code != 1 {
		t.Fatalf("exit = %d, want 1 for a config with no Go files", code)
	}
}

// tool is the silint binary the end-to-end tests share, built once.
var tool struct {
	once sync.Once
	dir  string // removed by TestMain
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tool.dir != "" {
		os.RemoveAll(tool.dir)
	}
	os.Exit(code)
}

// silint returns the go tool and a freshly built silint, skipping
// under -short.
func silint(t *testing.T) (goTool, silint string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds cmd/silint and invokes go vet")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	tool.once.Do(func() {
		if tool.dir, tool.err = os.MkdirTemp("", "silint"); tool.err != nil {
			return
		}
		tool.path = filepath.Join(tool.dir, "silint")
		build := exec.Command(goTool, "build", "-o", tool.path, "repro/cmd/silint")
		build.Dir = repoRoot(t)
		if out, err := build.CombinedOutput(); err != nil {
			tool.err = fmt.Errorf("building silint: %v\n%s", err, out)
		}
	})
	if tool.err != nil {
		t.Fatal(tool.err)
	}
	return goTool, tool.path
}

// TestVetToolProtocol drives the real thing end to end: build silint,
// point `go vet -vettool` at a fixture module with a known finding, and
// require the -V/-flags/vet.cfg handshake to produce exactly that
// diagnostic and exit nonzero.
func TestVetToolProtocol(t *testing.T) {
	goTool, tool := silint(t)

	mod := t.TempDir()
	writeFile(t, filepath.Join(mod, "go.mod"), "module fixturemod\n\ngo 1.24\n")
	writeFile(t, filepath.Join(mod, "nil.go"), `package fixturemod

type box struct{ v int }

func Get(b *box) int {
	if b == nil {
		return b.v
	}
	return 0
}
`)

	vet := exec.Command(goTool, "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet exited 0 on a module with a known finding\n%s", out)
	}
	if !strings.Contains(string(out), "silint/nilness") {
		t.Fatalf("diagnostic missing silint/nilness attribution:\n%s", out)
	}
	if !strings.Contains(string(out), "nil.go:7:10") {
		t.Fatalf("diagnostic missing position nil.go:7:10:\n%s", out)
	}
}

// TestRepoIsSilintClean runs the whole suite over this repository, the
// gate make lint applies: every finding must be fixed or carry a
// justified //silint:ignore.
func TestRepoIsSilintClean(t *testing.T) {
	goTool, tool := silint(t)
	vet := exec.Command(goTool, "vet", "-vettool="+tool, "repro/...")
	vet.Dir = repoRoot(t)
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=silint repro/...: %v\n%s", err, out)
	}
}

// repoRoot walks up from the working directory to the go.mod of this
// repository.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
