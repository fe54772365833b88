package engine

import (
	"errors"
	"testing"
)

// TestPairJoinSizeMemo: a size is counted once per snapshot and column-set
// pair (in either order, whatever order the attributes were named in), an
// error is returned but not memoized, and a child made by Extend counts
// afresh instead of inheriting the parent's entry.
func TestPairJoinSizeMemo(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	s := NewSnapshot(attrs, randRows(5, 40, 3, 4))
	cols := func(attrs ...string) []int {
		c, err := s.Columns(attrs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	calls := 0
	count := func(size int64) func() (int64, error) {
		return func() (int64, error) {
			calls++
			return size, nil
		}
	}
	ab, bc := cols("B", "A"), cols("C", "B")
	if got, err := s.PairJoinSizeCols(ab, bc, count(7)); err != nil || got != 7 || calls != 1 {
		t.Fatalf("first lookup: %d, %v after %d counts; want 7 after 1", got, err, calls)
	}
	for _, pair := range [][2][]int{{ab, bc}, {bc, ab}, {cols("A", "B"), cols("B", "C")}} {
		if got, err := s.PairJoinSizeCols(pair[0], pair[1], count(99)); err != nil || got != 7 || calls != 1 {
			t.Fatalf("memo hit for %v: %d, %v after %d counts; want 7 after 1", pair, got, err, calls)
		}
	}

	boom := errors.New("boom")
	if _, err := s.PairJoinSizeCols(cols("A"), cols("C"), func() (int64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("count error: got %v, want %v", err, boom)
	}
	if got, err := s.PairJoinSizeCols(cols("A"), cols("C"), count(3)); err != nil || got != 3 || calls != 2 {
		t.Fatalf("after a failed count: %d, %v after %d counts; want 3 after 2", got, err, calls)
	}

	child := s.Extend([]Tuple{{9, 9, 9}})
	if got, err := child.PairJoinSizeCols(ab, bc, count(8)); err != nil || got != 8 || calls != 3 {
		t.Fatalf("child lookup: %d, %v after %d counts; want 8 after 3", got, err, calls)
	}
	if got, _ := s.PairJoinSizeCols(ab, bc, count(99)); got != 7 || calls != 3 {
		t.Fatalf("parent after Extend: %d after %d counts; want its own 7", got, calls)
	}
}
