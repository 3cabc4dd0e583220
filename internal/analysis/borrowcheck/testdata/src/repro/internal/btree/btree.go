// Package btree stands in for repro/internal/btree at its import path:
// the values (*Tree).Get returns are read-only, matched by package path
// and name.
package btree

// Tree mirrors btree.Tree: on a mapped file, Get returns a view of the
// mapping.
type Tree struct{ vals map[string][]byte }

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	v, ok := t.vals[string(key)]
	return v, ok, nil
}

type index struct{ tree *Tree }

func (ix *index) bump(key []byte) {
	v, found, err := ix.tree.Get(key)
	if err != nil || !found {
		return
	}
	v[0]++ // want `element assignment writes into v`
}

// overwrite precedes the wrapper it calls, which the fixpoint must
// still recognize.
func (ix *index) overwrite(key, src []byte) {
	v, _, _ := ix.lookup(key)
	copy(v, src) // want `copy writes into v`
}

// lookup forwards Get, so its first result is a view too.
func (ix *index) lookup(key []byte) ([]byte, bool, error) {
	return ix.tree.Get(key)
}

// cache has a Get of its own, which is not a source.
type cache struct{ m map[string][]byte }

func (c *cache) Get(key string) []byte { return c.m[key] }

func (c *cache) clear(key string) {
	v := c.Get(key)
	v[0] = 0
}
