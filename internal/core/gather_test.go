package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGather pins the consultation policy every partitioned path runs
// on: a bounded gather never has more than lazyLookahead evaluations in
// flight and starts nothing once the window is full; an unbounded one
// starts every partition at once; results fold in partition order; a
// failure before full fails the gather with the lowest-index error, a
// failure after full is skipped while later successes still fold.
func TestGather(t *testing.T) {
	const n = 6
	cases := []struct {
		name          string
		bounded       bool
		fullAt        int // fold index that reports the window full; -1 = never
		fail          []int
		wantErr       int // index of the returned error; -1 = success
		wantConsulted int
		wantStarted   int // partitions 0..wantStarted-1 start, no others
	}{
		{"bounded, never full", true, -1, nil, -1, n, n},
		{"bounded, full at 1", true, 1, nil, -1, 3, 3},
		{"bounded, full at 0", true, 0, nil, -1, 2, 2},
		{"bounded, failure after full skipped", true, 1, []int{2}, -1, 2, 3},
		{"bounded, failure before full", true, 3, []int{1}, 1, 1, 3},
		{"bounded, lowest failure wins", true, -1, []int{1, 2}, 1, 1, 3},
		{"bounded, failure in the first window", true, -1, []int{0}, 0, 0, 2},
		{"unbounded, never full", false, -1, nil, -1, n, n},
		{"unbounded, lowest failure wins", false, -1, []int{4, 3}, 3, 3, n},
		{"unbounded, failure after full skipped", false, 0, []int{2}, -1, n - 1, n},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var (
				started         [n]atomic.Bool
				inflight, peak  atomic.Int32
				barrier         sync.WaitGroup
				barrierTimedOut atomic.Bool
				folded          []int
				errs            [n]error
			)
			for _, i := range c.fail {
				errs[i] = fmt.Errorf("partition %d failed", i)
			}
			barrier.Add(n)
			eval := func(i int) (int, error) {
				started[i].Store(true)
				cur := inflight.Add(1)
				defer inflight.Add(-1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				if c.bounded {
					time.Sleep(time.Millisecond) // let the lookahead overlap
				} else {
					// Every partition must be running at once: each waits
					// for all n to have started.
					barrier.Done()
					done := make(chan struct{})
					go func() { barrier.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(5 * time.Second):
						barrierTimedOut.Store(true)
					}
				}
				return i * 10, errs[i]
			}
			fold := func(i, v int) bool {
				if v != i*10 {
					t.Errorf("fold(%d) got %d", i, v)
				}
				folded = append(folded, i)
				return c.fullAt >= 0 && i >= c.fullAt
			}
			consulted, err := Gather(n, c.bounded, eval, fold)

			if c.wantErr < 0 && err != nil {
				t.Fatalf("err = %v, want success", err)
			}
			if c.wantErr >= 0 && !errors.Is(err, errs[c.wantErr]) {
				t.Fatalf("err = %v, want partition %d's", err, c.wantErr)
			}
			if consulted != c.wantConsulted || consulted != len(folded) {
				t.Fatalf("consulted = %d (folds %v), want %d", consulted, folded, c.wantConsulted)
			}
			for k := 1; k < len(folded); k++ {
				if folded[k] <= folded[k-1] {
					t.Fatalf("folds out of partition order: %v", folded)
				}
			}
			for i := range started {
				if got, want := started[i].Load(), i < c.wantStarted; got != want {
					t.Fatalf("partition %d started = %v, want %v (window full at fold %d)", i, got, want, c.fullAt)
				}
			}
			if inflight.Load() != 0 {
				t.Fatalf("Gather returned with %d evaluations still running", inflight.Load())
			}
			if c.bounded && peak.Load() > lazyLookahead {
				t.Fatalf("%d evaluations in flight, lookahead is %d", peak.Load(), lazyLookahead)
			}
			if !c.bounded && barrierTimedOut.Load() {
				t.Fatal("an unbounded gather did not run every partition at once")
			}
		})
	}
}
