package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.IsEmpty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", s.Count())
	}
	if s.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", s.Len())
	}
}

func TestNewZeroUniverse(t *testing.T) {
	s := New(0)
	if !s.IsEmpty() {
		t.Fatal("zero-universe set should be empty")
	}
	if s.Contains(0) {
		t.Fatal("zero-universe set should contain nothing")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("after Add(%d), Contains(%d) = false", i, i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("after Remove(64), Contains(64) = true")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	s := New(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(10) should panic for universe size 10")
		}
	}()
	s.Add(10)
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Fatal("out-of-range Contains should be false, not panic")
	}
}

func TestFromIndices(t *testing.T) {
	s := FromIndices(10, 1, 3, 5)
	if got := s.Indices(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("Indices() = %v, want [1 3 5]", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(200, 1, 5, 100, 150)
	b := FromIndices(200, 5, 100, 199)

	if got := a.Intersect(b).Indices(); !reflect.DeepEqual(got, []int{5, 100}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Union(b).Indices(); !reflect.DeepEqual(got, []int{1, 5, 100, 150, 199}) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Difference(b).Indices(); !reflect.DeepEqual(got, []int{1, 150}) {
		t.Fatalf("Difference = %v", got)
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("IntersectionCount = %d, want 2", got)
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	a, b := New(10), New(20)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched universes should panic")
		}
	}()
	a.IntersectWith(b)
}

func TestContainsAll(t *testing.T) {
	a := FromIndices(100, 1, 2, 3, 64, 65)
	b := FromIndices(100, 2, 64)
	if !a.ContainsAll(b) {
		t.Fatal("a should contain b")
	}
	if b.ContainsAll(a) {
		t.Fatal("b should not contain a")
	}
	if !a.ContainsAll(New(100)) {
		t.Fatal("every set contains the empty set")
	}
}

func TestIntersects(t *testing.T) {
	a := FromIndices(100, 1, 99)
	b := FromIndices(100, 99)
	c := FromIndices(100, 50)
	if !a.Intersects(b) {
		t.Fatal("a should intersect b")
	}
	if a.Intersects(c) {
		t.Fatal("a should not intersect c")
	}
}

func TestEqualCloneCopyFrom(t *testing.T) {
	a := FromIndices(100, 7, 70)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone should equal original")
	}
	b.Add(8)
	if a.Equal(b) {
		t.Fatal("mutating clone must not affect original")
	}
	if a.Contains(8) {
		t.Fatal("original must be unaffected by clone mutation")
	}
	c := New(100)
	c.CopyFrom(a)
	if !c.Equal(a) {
		t.Fatal("CopyFrom should produce an equal set")
	}
	if a.Equal(New(50)) {
		t.Fatal("sets over different universes are not equal")
	}
}

func TestFillClearTrim(t *testing.T) {
	s := New(70) // not a multiple of 64: exercises trim
	s.Fill()
	if got := s.Count(); got != 70 {
		t.Fatalf("after Fill, Count() = %d, want 70", got)
	}
	s.Clear()
	if !s.IsEmpty() {
		t.Fatal("after Clear, set should be empty")
	}
}

func TestMinMax(t *testing.T) {
	s := New(200)
	if _, ok := s.Min(); ok {
		t.Fatal("Min of empty set should report !ok")
	}
	if _, ok := s.Max(); ok {
		t.Fatal("Max of empty set should report !ok")
	}
	s.Add(67)
	s.Add(130)
	s.Add(5)
	if got, _ := s.Min(); got != 5 {
		t.Fatalf("Min = %d, want 5", got)
	}
	if got, _ := s.Max(); got != 130 {
		t.Fatalf("Max = %d, want 130", got)
	}
}

func TestCountBelow(t *testing.T) {
	s := FromIndices(200, 0, 63, 64, 100, 199)
	cases := []struct{ limit, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 2}, {65, 3}, {101, 4}, {200, 5}, {500, 5},
	}
	for _, c := range cases {
		if got := s.CountBelow(c.limit); got != c.want {
			t.Errorf("CountBelow(%d) = %d, want %d", c.limit, got, c.want)
		}
	}
}

func TestAnyBelow(t *testing.T) {
	s := FromIndices(200, 10, 70, 150)
	excl := FromIndices(200, 10, 70)
	if s.AnyBelow(100, excl) {
		t.Fatal("elements below 100 are all excluded")
	}
	if !s.AnyBelow(151, excl) {
		t.Fatal("150 is below 151 and not excluded")
	}
	if s.AnyBelow(0, New(200)) {
		t.Fatal("AnyBelow(0) must be false")
	}
	if !s.AnyBelow(1000, New(200)) {
		t.Fatal("limit beyond the universe should clamp, not panic")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(100, 1, 2, 3, 4)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("early stop saw %v, want [1 2]", seen)
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(10, 1, 3).String(); got != "{1, 3}" {
		t.Fatalf("String() = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestKeyEquality(t *testing.T) {
	a := FromIndices(100, 3, 77)
	b := FromIndices(100, 3, 77)
	c := FromIndices(100, 3, 78)
	if a.Key() != b.Key() {
		t.Fatal("equal sets must share a key")
	}
	if a.Key() == c.Key() {
		t.Fatal("different sets must have different keys")
	}
}

// randomSet builds a set plus mirror map from random data for property tests.
func randomSet(r *rand.Rand, n int) (*Set, map[int]bool) {
	s := New(n)
	m := make(map[int]bool)
	for i := 0; i < n/3; i++ {
		v := r.Intn(n)
		s.Add(v)
		m[v] = true
	}
	return s, m
}

func TestQuickMirrorsMapSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		s, m := randomSet(r, n)
		if s.Count() != len(m) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Contains(i) != m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| == |A| + |B| - |A ∩ B|
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		return a.Union(b).Count() == a.Count()+b.Count()-a.IntersectionCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferencePartition(t *testing.T) {
	// A = (A \ B) ⊎ (A ∩ B), disjoint union
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		diff := a.Difference(b)
		inter := a.Intersect(b)
		if diff.Intersects(inter) {
			return false
		}
		return diff.Union(inter).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickContainsAllIffDifferenceEmpty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		return a.ContainsAll(b) == b.Difference(a).IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountBelowConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		s, m := randomSet(r, n)
		limit := r.Intn(n + 10)
		want := 0
		for v := range m {
			if v < limit {
				want++
			}
		}
		return s.CountBelow(limit) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectionCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, _ := randomSet(r, 256)
	y, _ := randomSet(r, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.IntersectionCount(y)
	}
}

func TestViewAliasesWords(t *testing.T) {
	arena := make([]uint64, 3*Words(70))
	w := Words(70)
	a := View(arena[:w], 70)
	b := View(arena[w:2*w], 70)
	a.Add(3)
	a.Add(69)
	b.Add(64)
	b.UnionWith(&a)
	if !b.Equal(FromIndices(70, 3, 64, 69)) {
		t.Fatalf("b = %v", &b)
	}
	if arena[w] != 1<<3 || arena[w+1] != 1<<5|1 {
		t.Fatalf("view did not write through to its words: %x", arena)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View over the wrong word count must panic")
		}
	}()
	View(arena, 70)
}
