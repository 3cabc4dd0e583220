package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// A workload is one traffic mix against one index shape. The "why" of
// each — which layers it loads and which it bypasses — is in README.md
// and BENCHMARK.json; the fields here are what the runner needs.
type workload struct {
	name     string
	shards   int    // si.Build shards of the served index
	endpoint string // read endpoint: /count (exact, unbounded) or /search
	limit    int    // /search?limit= (0 = the server's default cap)
	distinct bool   // every query issued once; no reference pass, warm-up is disjoint
	writes   bool   // a writer runs its op schedule beside the reader
	clients  int    // closed-loop read connections
	fbSets   int    // 70-query FB sets mixed into the WH queries
}

var workloads = []workload{
	{name: "wh-full", shards: 1, endpoint: "/count", clients: 2},
	{name: "fb-distinct", shards: 1, endpoint: "/search", distinct: true, clients: 2},
	{name: "topk-sharded", shards: 4, endpoint: "/search", limit: 10, clients: 2, fbSets: 1},
	{name: "mixed-rw", shards: 1, endpoint: "/count", writes: true, clients: 1, fbSets: 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sizes scale a run. fullSizes is the benchmark; the smoke test runs
// the same code at toy scale. The full figures are what fits the
// driver's budget (three set-ups plus the timed window in well under
// 40 s per run on two cores), not the 50 000 trees ISSUE.md sketched.
type sizes struct {
	corpus       int // trees served by the read-only workloads
	mixedInitial int // trees mixed-rw starts from
	oracle       int // corpus prefix the exact matcher checks (never deleted from)
	held         int // held-out trees FB queries are cut from
	fbDistinct   int // distinct queries prepared for fb-distinct
	fbWarm       int // disjoint warm-up queries of fb-distinct
	appendTrees  int // trees per /append
	deleteTids   int // tids per /delete
	setups       int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{corpus: 16000, mixedInitial: 6000, oracle: 2000, held: 2000,
	fbDistinct: 24000, fbWarm: 500, appendTrees: 100, deleteTids: 80, setups: 3}

// heldBase is the first tid of the held-out range: far beyond any
// served or appended tree, so queries are never cut from indexed text.
const heldBase = 1 << 20

func (w workload) initialTrees(sz sizes) int {
	if w.writes {
		return sz.mixedInitial
	}
	return sz.corpus
}

// prepared is a workload's seeded input: the distinct queries, the
// order they are issued in, and the disjoint warm-up list.
type prepared struct {
	queries []string // distinct query texts
	order   []int32  // op i issues queries[order[i]]
	warm    []string // fb-distinct only: warm-up queries not in queries
}

// prepare derives every input of a run from the one seed: FB query
// sampling, the pass shuffles and (in the writer) the delete set.
// maxOps bounds the issue order; repeating workloads get whole
// reshuffled passes up to it, fb-distinct gets each query once.
func (w workload) prepare(seed uint64, sz sizes, maxOps int) prepared {
	var p prepared
	seen := map[string]bool{}
	held := genTrees(seed, heldBase, heldBase+sz.held)
	classify := genTrees(seed, 0, min(sz.corpus, 4000))
	if w.distinct {
		all := fbQueries(classify, held, seed, sz.fbDistinct+sz.fbWarm, seen)
		nWarm := min(sz.fbWarm, len(all)/4)
		p.warm, p.queries = all[:nWarm], all[nWarm:]
		p.order = make([]int32, len(p.queries))
		for i := range p.order {
			p.order[i] = int32(i)
		}
		return p
	}
	p.queries = whQueries()
	if w.fbSets > 0 {
		p.queries = append(p.queries, fbQueries(classify, held, seed, 70*w.fbSets, seen)...)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for len(p.order) < maxOps {
		for _, i := range rng.Perm(len(p.queries)) {
			p.order = append(p.order, int32(i))
		}
	}
	return p
}

// path is the request line of one read op.
func (w workload) path(q string) string {
	u := w.endpoint + "?q=" + url.QueryEscape(q)
	if w.limit > 0 {
		u += "&limit=" + strconv.Itoa(w.limit)
	}
	return u
}

// writeKind is one step of the mixed-rw writer.
type writeKind int

const (
	opAppend writeKind = iota
	opDelete
	opCompact
)

func (k writeKind) String() string { return [...]string{"append", "delete", "compact"}[k] }

// writeOp is one scheduled write: due is its offset into the window in
// schedule units.
type writeOp struct {
	kind writeKind
	due  float64
	lo   int   // append: first new tid
	tids []int // delete: victims
}

// Schedule shape of mixed-rw: 16 appends one unit apart, a delete
// right after every 4th, a compaction after the 8th and the 16th (last)
// — so reads cross 1..9 segments twice. A compaction rebuilds the
// whole index and blocks the writer, so it owns compactUnits units.
const (
	scheduleAppends = 16
	deleteEvery     = 4
	compactEvery    = 8
	compactUnits    = 6
)

// scheduleUnits is the schedule's length in units; one unit is the
// window divided by it.
const scheduleUnits = scheduleAppends + (scheduleAppends/compactEvery)*compactUnits

// schedule builds the writer's fixed op list. Delete victims come from
// one seeded permutation of [oracle, initial), taken without
// replacement: they stay valid, live tids across compactions (the tid
// space only ever exceeds initial) and never touch the oracle prefix.
func schedule(seed uint64, sz sizes, initial int) []writeOp {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	victims := rng.Perm(initial - sz.oracle)
	var ops []writeOp
	at, next := 0.0, initial
	for i := 1; i <= scheduleAppends; i++ {
		ops = append(ops, writeOp{kind: opAppend, due: at, lo: next})
		next += sz.appendTrees
		at++
		if i%deleteEvery == 0 {
			batch := victims[:sz.deleteTids]
			victims = victims[sz.deleteTids:]
			tids := make([]int, len(batch))
			for j, v := range batch {
				tids[j] = sz.oracle + v
			}
			ops = append(ops, writeOp{kind: opDelete, due: at - 0.5, tids: tids})
		}
		if i%compactEvery == 0 {
			ops = append(ops, writeOp{kind: opCompact, due: at})
			at += compactUnits
		}
	}
	return ops
}

// finalLiveTrees is the tree count the schedule must leave behind.
func finalLiveTrees(sz sizes, initial int) int {
	return initial + scheduleAppends*sz.appendTrees - (scheduleAppends/deleteEvery)*sz.deleteTids
}
