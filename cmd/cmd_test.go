// Package cmd_test exercises the four command-line tools end to end:
// generate a corpus, build an index over it, query it, and run a cheap
// experiment. The tools are compiled once into a temp dir with `go
// build`, so this is a true binary-level integration test.
package cmd_test

import (
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	// The test runs in the cmd/ package directory, so tools are
	// siblings.
	cmd := exec.Command("go", "build", "-o", bin, "./"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestToolPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary builds")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	bins := t.TempDir()
	work := t.TempDir()
	sigen := buildTool(t, bins, "sigen")
	sibuild := buildTool(t, bins, "sibuild")
	siquery := buildTool(t, bins, "siquery")
	siexp := buildTool(t, bins, "siexp")

	// 1. Generate a corpus file.
	corpus := filepath.Join(work, "corpus.mrg")
	run(t, sigen, "-n", "300", "-seed", "7", "-o", corpus)
	data, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 300 {
		t.Fatalf("sigen wrote %d lines, want 300", lines)
	}
	if !strings.HasPrefix(string(data), "(ROOT ") {
		t.Errorf("unexpected corpus head: %.40s", data)
	}

	// 2. Build an index from the file.
	idx := filepath.Join(work, "idx")
	out := run(t, sibuild, "-corpus", corpus, "-out", idx, "-mss", "3", "-coding", "root-split")
	if !strings.Contains(out, "300 trees") {
		t.Errorf("sibuild output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(idx, "subtree.idx")); err != nil {
		t.Errorf("index file missing: %v", err)
	}

	// 3. Query it, showing a match.
	out = run(t, siquery, "-index", idx, "-show", "1", "NP(DT)(NN)", "ZZZ(QQQ)")
	if !strings.Contains(out, "NP(DT)(NN): ") || !strings.Contains(out, "matches in") {
		t.Errorf("siquery output: %s", out)
	}
	if !strings.Contains(out, "ZZZ(QQQ): 0 matches") {
		t.Errorf("absent query should report 0 matches: %s", out)
	}
	if !strings.Contains(out, "tree ") {
		t.Errorf("-show printed no tree: %s", out)
	}

	// 4. sibuild with in-process generation agrees with the file path.
	idx2 := filepath.Join(work, "idx2")
	run(t, sibuild, "-gen", "300", "-seed", "7", "-out", idx2, "-mss", "3", "-coding", "root-split")
	out2 := run(t, siquery, "-index", idx2, "NP(DT)(NN)")
	c1 := matchCount(t, run(t, siquery, "-index", idx, "NP(DT)(NN)"))
	c2 := matchCount(t, out2)
	if c1 != c2 || c1 == 0 {
		t.Errorf("file-built and gen-built indexes disagree: %d vs %d", c1, c2)
	}

	// 5. A sharded build answers identically, queried through a cache.
	idx3 := filepath.Join(work, "idx3")
	out = run(t, sibuild, "-gen", "300", "-seed", "7", "-out", idx3,
		"-mss", "3", "-coding", "root-split", "-shards", "3")
	if !strings.Contains(out, "3 shards") {
		t.Errorf("sibuild sharded output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(idx3, "shard-0002", "subtree.idx")); err != nil {
		t.Errorf("shard directory missing: %v", err)
	}
	c3 := matchCount(t, run(t, siquery, "-index", idx3, "-cache", "1048576", "NP(DT)(NN)"))
	if c3 != c1 {
		t.Errorf("sharded index disagrees: %d vs %d", c3, c1)
	}
	// A limited query returns exactly one match (and says so), and the
	// count-only path agrees with the full search.
	out = run(t, siquery, "-index", idx3, "-limit", "1", "-timeout", "30s", "NP(DT)(NN)")
	if !strings.Contains(out, "(1 returned") {
		t.Errorf("siquery -limit 1 output: %s", out)
	}
	if c := matchCount(t, run(t, siquery, "-index", idx3, "-count", "NP(DT)(NN)")); c != c1 {
		t.Errorf("siquery -count = %d, want %d", c, c1)
	}

	// 6. sibuild -append grows an existing index as a new segment and
	// queries see the union immediately.
	more := filepath.Join(work, "more.mrg")
	run(t, sigen, "-n", "100", "-seed", "99", "-o", more)
	out = run(t, sibuild, "-append", "-corpus", more, "-out", idx3)
	if !strings.Contains(out, "appended to") || !strings.Contains(out, "2 segments") ||
		!strings.Contains(out, "400 trees total") {
		t.Errorf("sibuild -append output: %s", out)
	}
	cAfter := matchCount(t, run(t, siquery, "-index", idx3, "NP(DT)(NN)"))
	if cAfter <= c3 {
		t.Errorf("append did not grow matches: %d before, %d after", c3, cAfter)
	}

	// 7. siexp runs the cheap decomposition experiment.
	out = run(t, siexp, "-exp", "tab3")
	if !strings.Contains(out, "tab3") || !strings.Contains(out, "who") {
		t.Errorf("siexp output: %s", out)
	}
	// And lists experiments.
	out = run(t, siexp, "-list")
	for _, id := range []string{"fig2", "fig13", "tab1", "tab3"} {
		if !strings.Contains(out, id) {
			t.Errorf("siexp -list missing %s: %s", id, out)
		}
	}
}

// TestSisrvServes starts the query server binary over a small index
// and exercises every endpoint through real HTTP.
func TestSisrvServes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips binary builds")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	bins := t.TempDir()
	work := t.TempDir()
	sibuild := buildTool(t, bins, "sibuild")
	siquery := buildTool(t, bins, "siquery")
	sisrv := buildTool(t, bins, "sisrv")

	idx := filepath.Join(work, "idx")
	run(t, sibuild, "-gen", "300", "-seed", "7", "-out", idx, "-shards", "2")
	want := matchCount(t, run(t, siquery, "-index", idx, "NP(DT)(NN)"))

	// Reserve a port, release it, and hand it to sisrv.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(sisrv, "-index", idx, "-addr", addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()

	get := func(path string) []byte {
		t.Helper()
		var lastErr error
		for i := 0; i < 100; i++ {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				lastErr = err
				time.Sleep(50 * time.Millisecond)
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
			}
			return body
		}
		t.Fatalf("server never came up: %v", lastErr)
		return nil
	}

	if body := get("/healthz"); !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %s", body)
	}
	body := get("/search?q=" + url.QueryEscape("NP(DT)(NN)"))
	if !strings.Contains(string(body), `"count":`+strconv.Itoa(want)) {
		t.Fatalf("search count mismatch (want %d): %s", want, body)
	}
	resp, err := http.Post("http://"+addr+"/batch", "application/json",
		strings.NewReader(`{"queries":["NP(DT)(NN)","S(//NN)"],"count_only":true}`))
	if err != nil {
		t.Fatal(err)
	}
	bbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(bbody), `"count":`+strconv.Itoa(want)) {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, bbody)
	}
	if body := get("/stats"); !strings.Contains(string(body), `"posting_fetches"`) {
		t.Fatalf("stats: %s", body)
	}
	body = get("/stream?q=" + url.QueryEscape("NP(DT)(NN)") + "&limit=3")
	if !strings.Contains(string(body), `"done":true`) || !strings.Contains(string(body), `"tid":`) {
		t.Fatalf("stream: %s", body)
	}
}

func matchCount(t *testing.T, out string) int {
	t.Helper()
	// Format: "QUERY: N matches in ..."
	i := strings.Index(out, ": ")
	j := strings.Index(out, " matches")
	if i < 0 || j < 0 || j <= i {
		t.Fatalf("unparseable siquery output: %s", out)
	}
	n := 0
	for _, c := range out[i+2 : j] {
		if c < '0' || c > '9' {
			t.Fatalf("unparseable count in %q", out)
		}
		n = n*10 + int(c-'0')
	}
	return n
}
