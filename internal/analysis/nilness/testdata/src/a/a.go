// Package a is the nilness (lite) fixture: each function
// dereferences — or safely avoids — a value inside the branch where a
// nil test guarantees it is nil.
package a

type box struct{ v int }

// fieldThroughNil selects a field through a pointer known to be nil.
func fieldThroughNil(b *box) int {
	if b == nil {
		return b.v // want `field v selected on b, which is nil here`
	}
	return b.v
}

// derefNil dereferences in the else of a non-nil test.
func derefNil(p *int) int {
	if p != nil {
		return *p
	} else {
		return *p // want `dereference of p, which is nil here`
	}
}

// indexNil indexes a slice known to be nil.
func indexNil(s []int) int {
	if s == nil {
		return s[0] // want `index of s, which is nil here`
	}
	return s[0]
}

// mapWriteNil writes to a map known to be nil.
func mapWriteNil(m map[string]int) {
	if m == nil {
		m["k"] = 1 // want `write to map m, which is nil here`
	}
}

// callNil calls a function value known to be nil.
func callNil(f func()) {
	if f == nil {
		f() // want `call of f, which is nil here`
	}
}

// reassigned re-establishes the pointer before using it: no finding.
func reassigned(b *box) int {
	if b == nil {
		b = &box{}
		return b.v
	}
	return b.v
}

// guarded uses the pointer only where the test proves it non-nil.
func guarded(b *box) int {
	if b != nil {
		return b.v
	}
	return 0
}

// mapReadNil reads from a nil map, which is legal Go: no finding.
func mapReadNil(m map[string]int) int {
	if m == nil {
		return m["k"] + len(m)
	}
	return m["k"]
}
