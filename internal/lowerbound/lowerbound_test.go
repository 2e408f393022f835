package lowerbound

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/rules"
)

// groupFor builds the rule group whose antecedent is the closure of the
// given items.
func groupFor(d *dataset.Dataset, items []int, cls dataset.Label) *rules.Group {
	sup := d.SupportSet(items)
	ant := d.CommonItems(sup)
	xp := 0
	sup.ForEach(func(r int) bool {
		if d.Labels[r] == cls {
			xp++
		}
		return true
	})
	return &rules.Group{
		Antecedent: ant,
		Class:      cls,
		Support:    xp,
		Confidence: float64(xp) / float64(sup.Count()),
		Rows:       sup,
	}
}

// bruteForceLowerBounds enumerates all minimal subsets A' of g.Antecedent
// with R(A') == g.Rows.
func bruteForceLowerBounds(d *dataset.Dataset, g *rules.Group) [][]int {
	n := len(g.Antecedent)
	if n > 20 {
		panic("too many items for brute force")
	}
	var members []int // masks with R(A') == R
	for mask := 0; mask < 1<<n; mask++ {
		var items []int
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				items = append(items, g.Antecedent[b])
			}
		}
		if d.SupportSet(items).Equal(g.Rows) {
			members = append(members, mask)
		}
	}
	var out [][]int
	for _, m := range members {
		minimal := true
		for _, m2 := range members {
			if m2 != m && m2&m == m2 {
				minimal = false
				break
			}
		}
		if minimal {
			var items []int
			for b := 0; b < n; b++ {
				if m&(1<<b) != 0 {
					items = append(items, g.Antecedent[b])
				}
			}
			out = append(out, items)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return sliceLess(out[i], out[j])
	})
	return out
}

func sliceLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func TestExample22LowerBounds(t *testing.T) {
	// Example 2.2: group with upper bound abc -> C has lower bounds
	// a -> C and b -> C.
	d, idx := dataset.RunningExample()
	g := groupFor(d, []int{idx["a"]}, 0)
	if len(g.Antecedent) != 3 {
		t.Fatalf("closure of {a} should be abc, got %v", g.Antecedent)
	}
	lbs := Find(d, g, Config{NL: 10})
	if len(lbs) != 2 {
		t.Fatalf("found %d lower bounds, want 2 (a, b)", len(lbs))
	}
	var got []int
	for _, lb := range lbs {
		if len(lb.Antecedent) != 1 {
			t.Fatalf("lower bound %v should be a single item", lb.Antecedent)
		}
		got = append(got, lb.Antecedent[0])
	}
	sort.Ints(got)
	want := []int{idx["a"], idx["b"]}
	sort.Ints(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lower bounds = %v, want %v", got, want)
	}
}

func TestLowerBoundRuleCarriesGroupStats(t *testing.T) {
	d, idx := dataset.RunningExample()
	g := groupFor(d, []int{idx["a"]}, 0)
	lbs := Find(d, g, Config{NL: 1})
	if len(lbs) != 1 {
		t.Fatal("want one lower bound")
	}
	if lbs[0].Support != g.Support || lbs[0].Confidence != g.Confidence || lbs[0].Class != g.Class {
		t.Fatalf("lower bound stats %+v do not match group", lbs[0])
	}
}

func TestNLTruncates(t *testing.T) {
	d, idx := dataset.RunningExample()
	g := groupFor(d, []int{idx["a"]}, 0)
	if lbs := Find(d, g, Config{NL: 1}); len(lbs) != 1 {
		t.Fatalf("NL=1 returned %d bounds", len(lbs))
	}
	if lbs := Find(d, g, Config{NL: 0}); lbs != nil {
		t.Fatal("NL=0 should return nil")
	}
}

func TestGroupCoveringAllRows(t *testing.T) {
	// A group whose support set is every row has only the empty lower
	// bound.
	d := &dataset.Dataset{
		Items:      []dataset.Item{{GeneName: "x"}},
		Rows:       [][]int{{0}, {0}},
		Labels:     []dataset.Label{0, 1},
		ClassNames: []string{"C", "notC"},
	}
	g := groupFor(d, []int{0}, 0)
	lbs := Find(d, g, Config{NL: 3})
	if len(lbs) != 1 || len(lbs[0].Antecedent) != 0 {
		t.Fatalf("want single empty lower bound, got %v", lbs)
	}
}

func TestMaxLenCapsSearch(t *testing.T) {
	d, idx := dataset.RunningExample()
	// Group cde -> C (R = {r1, r3, r4}); its lower bounds are d (R(d) =
	// {r1,r3,r4}) — single item.
	g := groupFor(d, []int{idx["c"], idx["d"]}, 0)
	lbs := Find(d, g, Config{NL: 5, MaxLen: 1})
	for _, lb := range lbs {
		if len(lb.Antecedent) > 1 {
			t.Fatalf("MaxLen=1 produced %v", lb.Antecedent)
		}
	}
}

func TestQuickMatchesBruteForce(t *testing.T) {
	// Find with a large NL must return exactly the set of minimal lower
	// bounds (order may differ by ranking).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		// Pick a random row subset's closure as the group.
		nr := d.NumRows()
		seedRow := r.Intn(nr)
		g := groupFor(d, d.Rows[seedRow], 0)
		if len(g.Antecedent) == 0 || len(g.Antecedent) > 12 {
			return true // skip degenerate/expensive cases
		}
		want := bruteForceLowerBounds(d, g)
		got := Find(d, g, Config{NL: 1 << 20})
		if len(got) != len(want) {
			return false
		}
		canon := func(items [][]int) []string {
			out := make([]string, len(items))
			for i, s := range items {
				srt := append([]int(nil), s...)
				sort.Ints(srt)
				key := ""
				for _, x := range srt {
					key += string(rune('A' + x))
				}
				out[i] = key
			}
			sort.Strings(out)
			return out
		}
		gotSets := make([][]int, len(got))
		for i, lb := range got {
			gotSets[i] = lb.Antecedent
		}
		return reflect.DeepEqual(canon(gotSets), canon(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEveryResultIsValidLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		g := groupFor(d, d.Rows[r.Intn(d.NumRows())], 0)
		if len(g.Antecedent) == 0 {
			return true
		}
		for _, lb := range Find(d, g, Config{NL: 20}) {
			// Condition (1): subset of the upper bound.
			for _, it := range lb.Antecedent {
				found := false
				for _, u := range g.Antecedent {
					if u == it {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			// Condition (2): same support set.
			if !d.SupportSet(lb.Antecedent).Equal(g.Rows) {
				return false
			}
			// Condition (3): minimal — removing any item grows support.
			for drop := range lb.Antecedent {
				sub := append([]int(nil), lb.Antecedent[:drop]...)
				sub = append(sub, lb.Antecedent[drop+1:]...)
				if d.SupportSet(sub).Equal(g.Rows) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestFirst(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		g := groupFor(d, d.Rows[r.Intn(d.NumRows())], 0)
		lbs := Find(d, g, Config{NL: 50})
		for i := 1; i < len(lbs); i++ {
			if len(lbs[i].Antecedent) < len(lbs[i-1].Antecedent) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomDataset(r *rand.Rand) *dataset.Dataset {
	nRows := 3 + r.Intn(6)
	nItems := 3 + r.Intn(8)
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	for i := 0; i < nItems; i++ {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
	}
	for row := 0; row < nRows; row++ {
		var items []int
		for i := 0; i < nItems; i++ {
			if r.Intn(3) != 0 {
				items = append(items, i)
			}
		}
		if len(items) == 0 {
			items = []int{0}
		}
		d.Rows = append(d.Rows, items)
		d.Labels = append(d.Labels, dataset.Label(r.Intn(2)))
	}
	d.Labels[0] = 0
	return d
}

func TestItemScoreOverride(t *testing.T) {
	// With custom scores, the first-ranked single-item bound should be
	// the highest-scored one when several single-item bounds exist.
	d, idx := dataset.RunningExample()
	g := groupFor(d, []int{idx["a"]}, 0) // lower bounds: a, b
	scores := make([]float64, d.NumItems())
	scores[idx["b"]] = 10 // make b the top-ranked item
	lbs := Find(d, g, Config{NL: 1, ItemScore: scores})
	if len(lbs) != 1 || lbs[0].Antecedent[0] != idx["b"] {
		t.Fatalf("expected b first with boosted score, got %v", lbs)
	}
}

func TestBudgetHalts(t *testing.T) {
	d, idx := dataset.RunningExample()
	g := groupFor(d, []int{idx["a"]}, 0)
	// a and b share a kill set, so the single budgeted candidate (their
	// equivalence class) may expand to both; nothing beyond that class
	// may be examined.
	lbs := Find(d, g, Config{NL: 10, MaxCandidates: 1})
	if len(lbs) > 2 {
		t.Fatalf("budget 1 examined too much: %d results", len(lbs))
	}
}

func TestFindAllMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(r)
		var groups []*rules.Group
		for row := 0; row < d.NumRows(); row++ {
			groups = append(groups, groupFor(d, d.Rows[row], 0))
		}
		cfg := Config{NL: 10}
		got := FindAll(d, groups, cfg)
		if len(got) != len(groups) {
			t.Fatalf("trial %d: %d results for %d groups", trial, len(got), len(groups))
		}
		for i, g := range groups {
			want := Find(d, g, cfg)
			if len(got[i]) != len(want) {
				t.Fatalf("trial %d group %d: %d vs %d lower bounds", trial, i, len(got[i]), len(want))
			}
			for j := range want {
				if !reflect.DeepEqual(got[i][j].Antecedent, want[j].Antecedent) {
					t.Fatalf("trial %d group %d rule %d differs", trial, i, j)
				}
			}
		}
	}
}

func TestFindAllEmpty(t *testing.T) {
	d, _ := dataset.RunningExample()
	if out := FindAll(d, nil, Config{NL: 1}); len(out) != 0 {
		t.Fatal("no groups should give no results")
	}
}

func TestWarmScratchAllocatesOnlyRules(t *testing.T) {
	// A scratch reused across datasets and groups finds what a fresh one
	// does, and once warmed allocates only what it returns: the shared
	// antecedent backing, the rules and the pointer slice.
	r := rand.New(rand.NewSource(17))
	s := new(scratch)
	checked := 0
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(r)
		cfg := Config{NL: 10, ItemScore: DefaultItemScores(d)}
		for row := 0; row < d.NumRows(); row++ {
			g := groupFor(d, d.Rows[row], 0)
			found := s.find(d, g, cfg)
			if fresh := new(scratch).find(d, g, cfg); !reflect.DeepEqual(found, fresh) {
				t.Fatalf("trial %d row %d: reused scratch found %v, a fresh one %v", trial, row, found, fresh)
			}
			want := 0
			if len(found) > 0 {
				want = 2 // the rules and the pointer slice
				if len(found[0].Antecedent) > 0 {
					want++ // the antecedents' shared backing
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { s.find(d, g, cfg) }); allocs != float64(want) {
				t.Fatalf("trial %d row %d: %.0f allocs per warmed Find, want %d", trial, row, allocs, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no group checked")
	}
}
