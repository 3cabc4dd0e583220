// Package subtree implements the subtree machinery of the Subtree Index:
// the Pattern type for small labelled trees (index keys and cover
// pieces), canonical forms for unordered trees, the paper's pre-order
// ⟨size,label⟩ key flattening, and enumeration/extraction of all
// connected subtrees of sizes 1..mss from data trees.
package subtree

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lingtree"
)

// Pattern is a small rooted labelled tree: an index key or a piece of a
// decomposed query. Patterns are unordered in the semantics of the paper
// (A(B)(C) ≡ A(C)(B)); Canonical puts them in the unique canonical child
// order under which equal patterns have equal Keys.
type Pattern struct {
	Label    string     // node label
	Children []*Pattern // subtrees; order is semantically irrelevant until Canonical
}

// P is a convenience constructor for literals in tests and examples.
func P(label string, children ...*Pattern) *Pattern {
	return &Pattern{Label: label, Children: children}
}

// Size returns the number of nodes in the pattern.
func (p *Pattern) Size() int {
	n := 1
	for _, c := range p.Children {
		n += c.Size()
	}
	return n
}

// Clone returns a deep copy.
func (p *Pattern) Clone() *Pattern {
	cp := &Pattern{Label: p.Label}
	if len(p.Children) > 0 {
		cp.Children = make([]*Pattern, len(p.Children))
		for i, c := range p.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Canonical sorts children recursively (in place) into the canonical
// order — by their encoded key, lexicographically — and returns p.
// After Canonical, two patterns are equal as unordered trees iff their
// Keys are equal.
func (p *Pattern) Canonical() *Pattern {
	p.canonicalize()
	return p
}

// canonicalize returns the canonical key of p while sorting in place.
func (p *Pattern) canonicalize() Key {
	keys := make([]Key, len(p.Children))
	for i, c := range p.Children {
		keys[i] = c.canonicalize()
	}
	sort.Sort(&childSorter{keys: keys, kids: p.Children})
	return JoinKey(p.Label, p.Size(), keys)
}

type childSorter struct {
	keys []Key
	kids []*Pattern
}

func (s *childSorter) Len() int           { return len(s.keys) }
func (s *childSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *childSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.kids[i], s.kids[j] = s.kids[j], s.kids[i]
}

// Key is the flattened index-key encoding of a canonical pattern: the
// pre-order sequence of ⟨subtree-size, label⟩ tokens the paper describes
// in §4.2, rendered as text ("4:NP 2:DT 1:a 1:NN"). Keys of canonical
// patterns are unique per unordered tree and decode back via ParseKey.
type Key string

// Key returns the canonical key of the pattern. It canonicalizes p in
// place as a side effect.
func (p *Pattern) Key() Key {
	return p.canonicalize()
}

// JoinKey returns the Key of the canonical pattern whose root is
// labelled label and holds size nodes, and whose children's subtrees
// have the keys kids — what Key renders for that pattern, without
// building it. It sorts kids in place.
func JoinKey(label string, size int, kids []Key) Key {
	slices.Sort(kids)
	var tok [32]byte
	head := appendToken(tok[:0], size, label)
	n := len(head)
	for _, k := range kids {
		n += 1 + len(k)
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.Write(head)
	for _, k := range kids {
		sb.WriteByte(' ')
		sb.WriteString(string(k))
	}
	return Key(sb.String())
}

// String renders the pattern in query-like bracketed form, children in
// current order.
func (p *Pattern) String() string {
	var sb strings.Builder
	p.write(&sb)
	return sb.String()
}

func (p *Pattern) write(sb *strings.Builder) {
	sb.WriteString(escape(p.Label))
	for _, c := range p.Children {
		sb.WriteByte('(')
		c.write(sb)
		sb.WriteByte(')')
	}
}

// appendToken appends the ⟨size, label⟩ token "size:label", the label
// escaped, to dst.
func appendToken(dst []byte, size int, label string) []byte {
	dst = strconv.AppendInt(dst, int64(size), 10)
	dst = append(dst, ':')
	return appendEscaped(dst, label)
}

func escape(label string) string {
	if !strings.ContainsAny(label, " :\\()") {
		return label
	}
	return string(appendEscaped(nil, label))
}

// appendEscaped appends label to dst with every key metacharacter
// (space, colon, backslash, parentheses) backslash-escaped.
func appendEscaped(dst []byte, label string) []byte {
	for i := 0; i < len(label); i++ {
		switch label[i] {
		case ' ', ':', '\\', '(', ')':
			dst = append(dst, '\\')
		}
		dst = append(dst, label[i])
	}
	return dst
}

// ParseKey decodes a Key back into its pattern. The returned pattern is
// in canonical order (keys are only produced from canonical patterns).
func ParseKey(k Key) (*Pattern, error) {
	toks, err := splitTokens(string(k))
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("subtree: empty key")
	}
	p, rest, err := decode(toks)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("subtree: %d trailing tokens in key %q", len(rest), k)
	}
	return p, nil
}

type token struct {
	size  int
	label string
}

func splitTokens(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i >= len(s) {
			break
		}
		j := i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i || j >= len(s) || s[j] != ':' {
			return nil, fmt.Errorf("subtree: malformed key token at offset %d in %q", i, s)
		}
		size, err := strconv.Atoi(s[i:j])
		if err != nil || size < 1 {
			return nil, fmt.Errorf("subtree: bad size in key %q", s)
		}
		j++ // skip ':'
		var lb strings.Builder
		for j < len(s) && s[j] != ' ' {
			if s[j] == '\\' && j+1 < len(s) {
				j++
			}
			lb.WriteByte(s[j])
			j++
		}
		if lb.Len() == 0 {
			return nil, fmt.Errorf("subtree: empty label in key %q", s)
		}
		toks = append(toks, token{size: size, label: lb.String()})
		i = j
	}
	return toks, nil
}

func decode(toks []token) (*Pattern, []token, error) {
	t := toks[0]
	p := &Pattern{Label: t.label}
	rest := toks[1:]
	need := t.size - 1
	for need > 0 {
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("subtree: truncated key")
		}
		if rest[0].size > need {
			return nil, nil, fmt.Errorf("subtree: inconsistent sizes in key")
		}
		need -= rest[0].size
		var c *Pattern
		var err error
		c, rest, err = decode(rest)
		if err != nil {
			return nil, nil, err
		}
		p.Children = append(p.Children, c)
	}
	return p, rest, nil
}

// InducedPattern builds the pattern induced by a set of node indexes of
// a data tree. nodes must form a connected subgraph of t; the node with
// the smallest index is the root. It returns the canonical pattern and
// the slot mapping: slots[i] is the data-tree node index corresponding
// to the i-th node of the canonical pattern in pre-order. Joins over
// subtree-interval postings rely on this mapping.
func InducedPattern(t *lingtree.Tree, nodes []int) (*Pattern, []int, error) {
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("subtree: empty node set")
	}
	in := make(map[int]bool, len(nodes))
	root := nodes[0]
	for _, v := range nodes {
		in[v] = true
		if v < root {
			root = v
		}
	}
	for _, v := range nodes {
		if v != root && !in[t.Nodes[v].Parent] {
			return nil, nil, fmt.Errorf("subtree: node %d disconnected from root %d", v, root)
		}
	}
	var build func(v int) (*Pattern, []int)
	build = func(v int) (*Pattern, []int) {
		p := &Pattern{Label: t.Nodes[v].Label}
		order := []int{v}
		type kid struct {
			key   Key
			pat   *Pattern
			order []int
		}
		var kids []kid
		for _, c := range t.Nodes[v].Children {
			if !in[c] {
				continue
			}
			cp, co := build(c)
			kids = append(kids, kid{key: cp.canonicalize(), pat: cp, order: co})
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].key < kids[j].key })
		for _, k := range kids {
			p.Children = append(p.Children, k.pat)
			order = append(order, k.order...)
		}
		return p, order
	}
	p, slots := build(root)
	if len(slots) != len(nodes) {
		return nil, nil, fmt.Errorf("subtree: node set not connected")
	}
	return p, slots, nil
}
