package core

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/query"
)

// planCache is a bounded LRU over compiled query plans. It is keyed by
// query text — both the raw text a caller submitted and the query's
// canonical form point at the same *Plan, so a repeated query string
// skips parsing entirely while a reordered-but-equivalent query still
// hits through its canonical key. The bound counts *plans*, not keys:
// one LRU element holds a plan together with every key resolving to it
// (the canonical key plus up to maxPlanAliases raw-text aliases), so
// storing an alias can never evict the canonical entry it points at.
// (The previous per-key accounting did exactly that: at capacity, the
// alias put after a canonical-key hit evicted the canonical key it had
// just hit — pathological thrash at PlanCacheSize=1.) All methods are
// safe for concurrent use. Hit/miss accounting lives in the compiler
// (one hit or miss per plan lookup, regardless of how many keys were
// probed).
type planCache struct {
	mu     sync.Mutex
	max    int
	m      map[string]*list.Element // every live key → its plan's element
	byPlan map[*Plan]*list.Element  // alias attachment: plan → its element
	lru    *list.List               // front = most recent; elements hold *planEntry
}

// maxPlanAliases caps the raw-text alias keys kept per plan beyond its
// first key, so adversarial streams of distinct spellings of one query
// cannot grow a cached plan's key set without bound.
const maxPlanAliases = 4

// planEntry is one cached plan with every key that resolves to it.
type planEntry struct {
	keys []string // keys[0] is the first key stored (the canonical text)
	plan *Plan
}

// newPlanCache returns a cache bounded to max plans (nil when max <= 0).
func newPlanCache(max int) *planCache {
	if max <= 0 {
		return nil
	}
	return &planCache{
		max:    max,
		m:      make(map[string]*list.Element),
		byPlan: make(map[*Plan]*list.Element),
		lru:    list.New(),
	}
}

// get returns the plan cached under key, bumping its recency.
func (c *planCache) get(key string) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*planEntry).plan, true
}

// put stores plan under key. A key whose plan is already cached
// attaches as an alias of the existing entry (bounded by
// maxPlanAliases) rather than occupying — or evicting — a slot of its
// own; only genuinely new plans count toward the bound and trigger
// eviction of the least recently used plan with all its keys.
func (c *planCache) put(key string, plan *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		ent := e.Value.(*planEntry)
		if ent.plan != plan {
			// The key re-binds to a different plan (a rebuilt entry):
			// detach it from the old plan's key set and fall through to
			// a fresh store.
			c.detachLocked(e, key)
		} else {
			c.lru.MoveToFront(e)
			return
		}
	}
	if e, ok := c.byPlan[plan]; ok {
		ent := e.Value.(*planEntry)
		if len(ent.keys) <= maxPlanAliases {
			ent.keys = append(ent.keys, key)
			c.m[key] = e
		}
		c.lru.MoveToFront(e)
		return
	}
	e := c.lru.PushFront(&planEntry{keys: []string{key}, plan: plan})
	c.m[key] = e
	c.byPlan[plan] = e
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		ent := last.Value.(*planEntry)
		for _, k := range ent.keys {
			delete(c.m, k)
		}
		delete(c.byPlan, ent.plan)
	}
}

// detachLocked removes key from the entry e points at, dropping the
// whole entry when that was its last key. Callers hold c.mu.
func (c *planCache) detachLocked(e *list.Element, key string) {
	ent := e.Value.(*planEntry)
	for i, k := range ent.keys {
		if k == key {
			ent.keys = append(ent.keys[:i], ent.keys[i+1:]...)
			break
		}
	}
	delete(c.m, key)
	if len(ent.keys) == 0 {
		c.lru.Remove(e)
		delete(c.byPlan, ent.plan)
	}
}

// len returns the number of cached plans (the unit the bound counts).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// purge drops every cached plan and returns the primary (first-stored)
// key of each dropped entry, so the compiler can recognize which
// queries get re-planned after an invalidation.
func (c *planCache) purge() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	primaries := make([]string, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*planEntry)
		if len(ent.keys) > 0 {
			primaries = append(primaries, ent.keys[0])
		}
	}
	c.m = make(map[string]*list.Element)
	c.byPlan = make(map[*Plan]*list.Element)
	c.lru = list.New()
	return primaries
}

// compiler turns query text into cost-annotated plans for one index
// configuration, optionally through a planCache — the entry point of
// the decompose → plan → execute pipeline. A Live handle owns the one
// compiler of an open index: all leaves share MSS, coding and
// statistics and therefore plans. Each planQuery or planText call
// records exactly one cache hit or miss.
//
// The compiler carries the live posting statistics and their
// generation. Cache keys embed the generation, and a generation bump
// (publish of a new segment set by Append/Delete/Compact/Reload)
// purges the cache: a plan costed against replaced statistics can
// never be served against the republished index, and the queries whose
// plans were invalidated count as replans when they next compile.
type compiler struct {
	mss    int
	coding postings.Coding
	cache  *planCache // nil = caching disabled
	hits   atomic.Uint64
	misses atomic.Uint64

	gen     atomic.Uint64                 // statistics generation, embedded in cache keys
	stats   atomic.Pointer[planner.Stats] // live statistics plans are costed against
	replans atomic.Uint64                 // re-compilations forced by a generation bump
	estRows atomic.Uint64                 // cumulative estimated join rows of costed queries
	actRows atomic.Uint64                 // cumulative actual join rows of the same queries

	invalMu     sync.Mutex
	invalidated map[string]struct{} // canonical texts purged by the last bumps
}

// newCompiler returns a compiler for an index with the given meta,
// caching up to cacheSize plans (0 disables caching). The meta's
// KeyStats (nil on indexes built before statistics existed) seed the
// cost model at generation 0.
func newCompiler(meta Meta, cacheSize int) *compiler {
	p := &compiler{mss: meta.MSS, coding: meta.Coding, cache: newPlanCache(cacheSize)}
	if meta.KeyStats != nil {
		p.stats.Store(meta.KeyStats)
	}
	return p
}

// setStats installs the statistics of a freshly published segment set.
// A generation change purges the plan cache and remembers the purged
// queries so their next compilation counts as a replan; gen 0 publishes
// (the initial open) install silently.
func (p *compiler) setStats(stats *planner.Stats, gen uint64) {
	old := p.gen.Load()
	p.stats.Store(stats)
	if gen == old {
		return
	}
	p.gen.Store(gen)
	if p.cache == nil {
		return
	}
	purged := p.cache.purge()
	if len(purged) == 0 {
		return
	}
	p.invalMu.Lock()
	if p.invalidated == nil {
		p.invalidated = make(map[string]struct{}, len(purged))
	}
	for _, k := range purged {
		// Purged keys carry the generation prefix; strip it so the next
		// compile (under the new generation) can match.
		p.invalidated[stripGenPrefix(k)] = struct{}{}
	}
	p.invalMu.Unlock()
}

// genKey prefixes a cache key with the statistics generation, so a
// cached plan is only ever served against the statistics it was costed
// under.
func (p *compiler) genKey(key string) string {
	return "g" + strconv.FormatUint(p.gen.Load(), 10) + "|" + key
}

// stripGenPrefix undoes genKey.
func stripGenPrefix(key string) string {
	for i := 1; i < len(key); i++ {
		if key[i] == '|' {
			return key[i+1:]
		}
	}
	return key
}

// noteMiss records a compile, counting it as a replan when the query's
// previous plan was invalidated by a generation bump.
func (p *compiler) noteMiss(canon string) {
	p.misses.Add(1)
	p.invalMu.Lock()
	if _, ok := p.invalidated[canon]; ok {
		delete(p.invalidated, canon)
		p.replans.Add(1)
	}
	p.invalMu.Unlock()
}

// compile builds a plan against the current statistics.
func (p *compiler) compile(q *query.Query) (*Plan, error) {
	return planner.New(q, p.mss, p.coding, p.stats.Load())
}

// observePlan accumulates one costed query's estimated vs. actual
// match cardinality — the planner's estimate-error counters surfaced
// in /stats. Uncosted plans carry no estimate and are not counted.
func (p *compiler) observePlan(pl *Plan, actual int) {
	if pl == nil || !pl.Costed {
		return
	}
	p.estRows.Add(pl.EstRows)
	p.actRows.Add(uint64(actual))
}

// planQuery returns the plan of an already-parsed query, keyed by its
// canonical text, and whether the plan came from the cache. The query
// is cloned before the plan is cached, so a caller who mutates q
// afterwards cannot corrupt cached plans.
func (p *compiler) planQuery(q *query.Query) (*Plan, bool, error) {
	if p.cache == nil {
		pl, err := p.compile(q)
		return pl, false, err
	}
	canon := q.Canonical()
	if pl, ok := p.cache.get(p.genKey(canon)); ok {
		p.hits.Add(1)
		return pl, true, nil
	}
	p.noteMiss(canon)
	pl, err := p.compile(q.Clone())
	if err != nil {
		return nil, false, err
	}
	p.cache.put(p.genKey(canon), pl)
	return pl, false, nil
}

// planText returns the plan of a textual query and whether it came
// from the cache. A raw-text cache hit skips parsing and decomposition
// entirely; otherwise the text is parsed, the canonical key is tried,
// and the raw text is stored as an alias so the next identical request
// short-circuits.
func (p *compiler) planText(src string) (*Plan, bool, error) {
	if p.cache == nil {
		q, err := query.Parse(src)
		if err != nil {
			return nil, false, err
		}
		pl, err := p.compile(q)
		return pl, false, err
	}
	if pl, ok := p.cache.get(p.genKey(src)); ok {
		p.hits.Add(1)
		return pl, true, nil
	}
	q, err := query.Parse(src)
	if err != nil {
		return nil, false, err
	}
	canon := q.Canonical()
	if canon != src {
		if pl, ok := p.cache.get(p.genKey(canon)); ok {
			p.hits.Add(1)
			p.cache.put(p.genKey(src), pl)
			return pl, true, nil
		}
	}
	p.noteMiss(canon)
	pl, err := p.compile(q)
	if err != nil {
		return nil, false, err
	}
	p.cache.put(p.genKey(canon), pl)
	if canon != src {
		p.cache.put(p.genKey(src), pl)
	}
	return pl, false, nil
}

// planBatch plans every query of a batch, reporting per-query cache
// hits; any unparsable query fails the whole batch with an error
// naming its position.
func (p *compiler) planBatch(srcs []string) ([]*Plan, []bool, error) {
	plans := make([]*Plan, len(srcs))
	hits := make([]bool, len(srcs))
	for i, src := range srcs {
		pl, hit, err := p.planText(src)
		if err != nil {
			return nil, nil, fmt.Errorf("core: batch query %d %q: %w", i, src, err)
		}
		plans[i], hits[i] = pl, hit
	}
	return plans, hits, nil
}

// counters reports the compiler's cache activity (zeros when caching is
// disabled, since no lookups happen).
func (p *compiler) counters() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// plannerCounters reports the compiler's planning activity: replans
// forced by statistics-generation bumps and the cumulative estimated
// vs. actual join rows of costed queries.
func (p *compiler) plannerCounters() (replans, estRows, actRows uint64) {
	return p.replans.Load(), p.estRows.Load(), p.actRows.Load()
}
