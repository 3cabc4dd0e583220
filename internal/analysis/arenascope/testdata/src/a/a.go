// Package a is the arenascope fixture: RefArena mirrors the shape of
// internal/postings' arena (Take carving a slice), and each function is
// one ownership class's positive or negative case.
package a

type node struct{ pre, post int }

type RefArena struct{ buf []node }

func (a *RefArena) Take(n int) []node {
	if cap(a.buf) < n {
		a.buf = make([]node, n)
	}
	return a.buf[:n]
}

type entry struct{ nodes []node }

func use(ns []node) {}

// localReturn returns memory owned by a function-local arena: it dies
// with the call.
func localReturn() []node {
	var arena RefArena
	return arena.Take(3) // want `returned from localReturn, which owns the arena locally`
}

// localCopy copies out of the local arena before returning.
func localCopy() []node {
	var arena RefArena
	tmp := arena.Take(3)
	out := make([]node, len(tmp))
	copy(out, tmp)
	return out
}

type cursor struct {
	arena RefArena
	cur   []node
}

// fill stores a carve into a field of the arena's own holder: co-owned,
// same lifetime, fine.
func (c *cursor) fill() {
	c.cur = c.arena.Take(4)
}

// leakInto stores a carve into a different object, which can outlive
// this cursor's arena.
func (c *cursor) leakInto(other *cursor) {
	other.cur = c.arena.Take(4) // want `the arena lives on c`
}

// take returns a field-arena carve to the holder's caller — the cursor
// contract: entries stay valid for the cursor's lifetime.
func (c *cursor) take() []node {
	return c.arena.Take(2)
}

// build carves from the caller's arena: parameter class, flows back
// freely.
func build(a *RefArena) entry {
	return entry{nodes: a.Take(2)}
}

var sink []node

// leakGlobal stores a carve into a package-level variable: it outlives
// every arena class.
func leakGlobal(a *RefArena) {
	sink = a.Take(1) // want `stored into package-level variable sink`
}

// leakChan sends a carve across a channel: arenas are single-goroutine.
func leakChan(c *cursor, ch chan []node) {
	ns := c.arena.Take(1)
	ch <- ns // want `sent on a channel`
}

// leakGo touches a carve from another goroutine.
func leakGo(c *cursor) {
	ns := c.arena.Take(1)
	go use(ns) // want `used from a goroutine`
}
