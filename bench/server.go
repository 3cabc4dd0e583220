package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/sisrv from the checkout's source into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "sisrv")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, sisrvPackage)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", sisrvPackage, err, out)
	}
	return bin, nil
}

// child is one running sisrv process.
type child struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once the process has been reaped
	logs   *syncBuffer
}

// syncBuffer collects the child's log output; exec copies into it from
// its own goroutine while a failure report may read it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServer launches sisrv over dir on a free loopback port with
// default flags only — -index and -addr are deployment settings — and
// waits for /readyz. The port is picked by binding :0 and releasing
// it, so a lost race for it is retried.
func startServer(ctx context.Context, bin, dir string, hc *http.Client) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		c := &child{base: "http://" + addr, exited: make(chan struct{}), logs: &syncBuffer{}}
		c.cmd = exec.Command(bin, "-index", dir, "-addr", addr)
		c.cmd.Stdout, c.cmd.Stderr = c.logs, c.logs
		if err := c.cmd.Start(); err != nil {
			return nil, err
		}
		go func() {
			c.cmd.Wait() // the exit status is not news: stop() kills it
			close(c.exited)
		}()
		if lastErr = c.waitReady(ctx, hc); lastErr == nil {
			return c, nil
		}
		c.stop()
	}
	return nil, lastErr
}

// waitReady polls /readyz until it answers 200, the child dies, or 20 s
// pass.
func (c *child) waitReady(ctx context.Context, hc *http.Client) error {
	deadline := time.After(20 * time.Second)
	for {
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.exited:
			return fmt.Errorf("sisrv exited before /readyz: %s", c.logs)
		case <-deadline:
			return fmt.Errorf("sisrv not ready after 20s: %s", c.logs)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop terminates the child — SIGTERM for sisrv's graceful drain,
// SIGKILL if it lingers — and returns once the process has ended.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// readResp is the part of /search and /count bodies the runner checks.
type readResp struct {
	Count     int   `json:"count"`
	Matches   []hit `json:"matches"`
	Truncated bool  `json:"truncated"`
}

// answer is one read op's outcome: the decoded body and the
// client-side latency — send until the body is fully read.
type answer struct {
	readResp
	start   time.Time
	latency time.Duration
	bytes   int
}

// get issues one read op. Decoding the body is outside the latency but
// inside the closed loop.
func get(ctx context.Context, hc *http.Client, url string) (answer, error) {
	var a answer
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return a, err
	}
	a.start = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return a, err
	}
	body, err := io.ReadAll(resp.Body)
	a.latency = time.Since(a.start)
	resp.Body.Close()
	a.bytes = len(body)
	if err != nil {
		return a, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &a.readResp); err != nil {
		return a, fmt.Errorf("%s: %w", url, err)
	}
	return a, nil
}

// post issues one write op or /stats read and decodes the JSON answer.
func post(ctx context.Context, hc *http.Client, method, url string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, into)
}

// serverStats is the part of /stats the runner reads.
type serverStats struct {
	Index struct {
		LiveTrees int `json:"live_trees"`
		Segments  int `json:"segments"`
	} `json:"index"`
	Serving struct {
		SegmentBytes   int64  `json:"segment_bytes"`
		PostingFetches uint64 `json:"posting_fetches"`
		PlanCacheHits  uint64 `json:"plan_cache_hits"`
		PlanCacheMiss  uint64 `json:"plan_cache_misses"`
	} `json:"serving"`
}

func fetchStats(ctx context.Context, hc *http.Client, base string) (serverStats, error) {
	var st serverStats
	err := post(ctx, hc, http.MethodGet, base+"/stats", nil, &st)
	return st, err
}

// newWorkDir makes the run's scratch directory — index directories,
// the sisrv binary — under the system temp dir (which run.sh points
// into the checkout).
func newWorkDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "sibench-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
