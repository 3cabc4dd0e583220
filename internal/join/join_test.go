package join

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/postings"
	"repro/internal/query"
)

func ref(pre, post, level uint32) postings.NodeRef {
	return postings.NodeRef{Pre: pre, Post: post, Level: level}
}

func entry(tid uint32, refs ...postings.NodeRef) postings.IntervalEntry {
	return postings.IntervalEntry{TID: tid, Nodes: refs}
}

func TestSingleRelation(t *testing.T) {
	q := query.MustParse("NP")
	rels := []Relation{{
		Name:  "1:NP",
		Slots: []int{0},
		Entries: []postings.IntervalEntry{
			entry(3, ref(1, 5, 1)),
			entry(7, ref(0, 9, 0)),
		},
	}}
	got, err := execute(q, rels, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{TID: 3, Root: 1}, {TID: 7, Root: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEqualityJoinOnSharedRoot(t *testing.T) {
	// Query A(B)(C), two root-split pieces A(B) and A(C) rooted at A.
	q := query.MustParse("A(B)(C)")
	ab := Relation{Name: "A(B)", Slots: []int{0}, Entries: []postings.IntervalEntry{
		entry(1, ref(0, 9, 0)),
		entry(2, ref(4, 8, 1)),
	}}
	ac := Relation{Name: "A(C)", Slots: []int{0}, Entries: []postings.IntervalEntry{
		entry(1, ref(0, 9, 0)),
		entry(2, ref(5, 7, 2)), // different A: no join
	}}
	got, err := execute(q, []Relation{ab, ac}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{TID: 1, Root: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestParentJoinBetweenRoots(t *testing.T) {
	// Query A(B): piece {A} and piece {B} joined by a parent predicate.
	q := query.MustParse("A(B)")
	// Tree 1: A at pre 0 (post 3, level 0); B child at pre 1 (post 1, level 1).
	// Also a deeper B at pre 2 (post 0, level 2) — not a child.
	ra := Relation{Name: "A", Slots: []int{0}, Entries: []postings.IntervalEntry{
		entry(1, ref(0, 3, 0)),
	}}
	rb := Relation{Name: "B", Slots: []int{1}, Entries: []postings.IntervalEntry{
		entry(1, ref(1, 1, 1)),
		entry(1, ref(2, 0, 2)),
	}}
	got, err := execute(q, []Relation{ra, rb}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{TID: 1, Root: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestAncestorJoin(t *testing.T) {
	q := query.MustParse("A(//B)")
	ra := Relation{Name: "A", Slots: []int{0}, Entries: []postings.IntervalEntry{
		entry(1, ref(0, 5, 0)),
		entry(2, ref(3, 1, 2)), // A that contains nothing
	}}
	rb := Relation{Name: "B", Slots: []int{1}, Entries: []postings.IntervalEntry{
		entry(1, ref(2, 2, 2)), // descendant at any depth
		entry(2, ref(1, 9, 1)), // not inside the A above
	}}
	got, err := execute(q, []Relation{ra, rb}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{TID: 1, Root: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSiblingDistinctness(t *testing.T) {
	// A(B(x))(B(y)) with every node bound (interval-style relations):
	// the two Bs must bind different nodes.
	q := query.MustParse("A(B(x))(B(y))")
	// Query indexes: A0 B1 x2 B3 y4.
	// Tree: A(pre0) with one B(pre1) having x(pre2) and y(pre3):
	// a single B satisfies both branches only non-injectively.
	bx := Relation{Name: "A(B(x))", Slots: []int{0, 1, 2}, Entries: []postings.IntervalEntry{
		entry(1, ref(0, 4, 0), ref(1, 3, 1), ref(2, 0, 2)),
	}}
	by := Relation{Name: "A(B(y))", Slots: []int{0, 3, 4}, Entries: []postings.IntervalEntry{
		entry(1, ref(0, 4, 0), ref(1, 3, 1), ref(3, 1, 2)),
	}}
	got, err := execute(q, []Relation{bx, by}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("single B bound twice should be rejected: %v", got)
	}
	// With two distinct Bs it matches.
	bx2 := Relation{Name: "A(B(x))", Slots: []int{0, 1, 2}, Entries: []postings.IntervalEntry{
		entry(2, ref(0, 6, 0), ref(1, 2, 1), ref(2, 0, 2)),
	}}
	by2 := Relation{Name: "A(B(y))", Slots: []int{0, 3, 4}, Entries: []postings.IntervalEntry{
		entry(2, ref(0, 6, 0), ref(3, 5, 1), ref(4, 3, 2)),
	}}
	got, err = execute(q, []Relation{bx2, by2}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []Match{{TID: 2, Root: 0}}) {
		t.Errorf("distinct Bs should match: %v", got)
	}
}

func TestEmptyRelationShortCircuits(t *testing.T) {
	q := query.MustParse("A(B)")
	ra := Relation{Name: "A", Slots: []int{0}, Entries: []postings.IntervalEntry{entry(1, ref(0, 1, 0))}}
	rb := Relation{Name: "B", Slots: []int{1}}
	got, err := execute(q, []Relation{ra, rb}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("got %v", got)
	}
}

func TestDeduplicationOfRootImages(t *testing.T) {
	// Two different Bs under the same A: one match (root image), not two.
	q := query.MustParse("A(B)")
	ra := Relation{Name: "A", Slots: []int{0}, Entries: []postings.IntervalEntry{
		entry(1, ref(0, 9, 0)),
	}}
	rb := Relation{Name: "B", Slots: []int{1}, Entries: []postings.IntervalEntry{
		entry(1, ref(1, 2, 1)),
		entry(1, ref(3, 5, 1)),
	}}
	got, err := execute(q, []Relation{ra, rb}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []Match{{TID: 1, Root: 0}}) {
		t.Errorf("got %v", got)
	}
}

func TestErrors(t *testing.T) {
	q := query.MustParse("A(B)")
	if _, err := execute(q, nil); err == nil {
		t.Error("no relations accepted")
	}
	// Root not bound.
	rb := Relation{Name: "B", Slots: []int{1}, Entries: []postings.IntervalEntry{entry(1, ref(1, 1, 1))}}
	if _, err := execute(q, []Relation{rb}, 0); err == nil {
		t.Error("unbound root accepted")
	}
	// Slotless relation.
	bad := Relation{Name: "bad", Entries: []postings.IntervalEntry{entry(1, ref(0, 0, 0))}}
	if _, err := execute(q, []Relation{bad}, 0); err == nil {
		t.Error("slotless relation accepted")
	}
}

func TestDisconnectedRelationsRejected(t *testing.T) {
	// Query A(B(C)): relations binding only A and only C share no slot
	// and no query edge, and no relation binds the B between them, so no
	// order of the two connects; Run and the stream both refuse each one.
	q := query.MustParse("A(B(C))")
	ra := Relation{Name: "A", Slots: []int{0}, Entries: []postings.IntervalEntry{entry(1, ref(0, 2, 0))}}
	rc := Relation{Name: "C", Slots: []int{2}, Entries: []postings.IntervalEntry{entry(1, ref(2, 0, 2))}}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		if _, err := execute(q, []Relation{ra, rc}, order...); err == nil {
			t.Errorf("Run accepted the disconnected order %v", order)
		}
		if _, err := NewStreamOpts(context.Background(), q, sliceRelations([]Relation{ra, rc}), Options{Order: order}); err == nil {
			t.Errorf("NewStreamOpts accepted the disconnected order %v", order)
		}
	}
}

// TestOrderRequired holds both entry points to the order contract: the
// join runs the order it is given or refuses it, naming the order and
// the relation count — a nil order, one that is not a permutation of the
// relations, and one in which a relation does not connect to those
// before it are errors even when every relation is empty, and a valid
// order of the same relations is not.
func TestOrderRequired(t *testing.T) {
	q := query.MustParse("A(B(C))")
	full := []Relation{
		{Name: "A", Slots: []int{0}, Entries: []postings.IntervalEntry{entry(1, ref(0, 2, 0))}},
		{Name: "B", Slots: []int{1}, Entries: []postings.IntervalEntry{entry(1, ref(1, 1, 1))}},
		{Name: "C", Slots: []int{2}, Entries: []postings.IntervalEntry{entry(1, ref(2, 0, 2))}},
	}
	empty := []Relation{{Name: "A", Slots: []int{0}}, {Name: "B", Slots: []int{1}}, {Name: "C", Slots: []int{2}}}
	for _, rels := range [][]Relation{full, empty} {
		for _, order := range [][]int{nil, {}, {0, 1}, {0, 1, 1}, {0, 1, 3}, {0, 1, 2, 0}, {-1, 1, 2}, {0, 2, 1}, {2, 0, 1}} {
			want := fmt.Sprintf("order %v is not a connected order of 3 relations", order)
			if _, err := execute(q, rels, order...); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Run with order %v: %v, want an error containing %q", order, err, want)
			}
			if _, err := NewStreamOpts(context.Background(), q, sliceRelations(rels), Options{Order: order}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("NewStreamOpts with order %v: %v, want an error containing %q", order, err, want)
			}
		}
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
			if _, err := execute(q, rels, order...); err != nil {
				t.Errorf("Run refused the connected order %v: %v", order, err)
			}
			if _, err := NewStreamOpts(context.Background(), q, sliceRelations(rels), Options{Order: order}); err != nil {
				t.Errorf("NewStreamOpts refused the connected order %v: %v", order, err)
			}
		}
	}
}
