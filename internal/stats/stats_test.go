package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEntropy(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{nil, 0},
		{[]int{0, 0}, 0},
		{[]int{5, 0}, 0},
		{[]int{1, 1}, 1},
		{[]int{2, 2, 2, 2}, 2},
		{[]int{3, 1}, -(0.75*math.Log2(0.75) + 0.25*math.Log2(0.25))},
	}
	for _, c := range cases {
		if got := Entropy(c.counts); !almostEqual(got, c.want) {
			t.Errorf("Entropy(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestEntropyBounds(t *testing.T) {
	// 0 <= H <= log2(k) for any count vector with k classes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(6)
		counts := make([]int, k)
		for i := range counts {
			counts[i] = r.Intn(50)
		}
		h := Entropy(counts)
		return h >= -1e-12 && h <= math.Log2(float64(k))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedEntropy(t *testing.T) {
	// Pure blocks → 0.
	if got := WeightedEntropy([][]int{{4, 0}, {0, 6}}); !almostEqual(got, 0) {
		t.Fatalf("pure partition entropy = %v", got)
	}
	// Single block equals plain entropy.
	if got := WeightedEntropy([][]int{{3, 1}}); !almostEqual(got, Entropy([]int{3, 1})) {
		t.Fatalf("single block = %v", got)
	}
	// Empty input.
	if got := WeightedEntropy(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestBestBinarySplitSeparable(t *testing.T) {
	vs := []LabeledValue{
		{1, 0}, {2, 0}, {3, 0}, {10, 1}, {11, 1},
	}
	cut, gain, ok := BestBinarySplit(vs, 2)
	if !ok {
		t.Fatal("expected a split")
	}
	if !almostEqual(cut, 6.5) {
		t.Fatalf("cut = %v, want 6.5", cut)
	}
	wantGain := Entropy([]int{3, 2})
	if !almostEqual(gain, wantGain) {
		t.Fatalf("gain = %v, want %v (perfect split)", gain, wantGain)
	}
}

func TestBestBinarySplitNoCut(t *testing.T) {
	if _, _, ok := BestBinarySplit([]LabeledValue{{5, 0}, {5, 1}, {5, 0}}, 2); ok {
		t.Fatal("identical values admit no cut")
	}
	if _, _, ok := BestBinarySplit([]LabeledValue{{1, 0}}, 2); ok {
		t.Fatal("single sample admits no cut")
	}
	if _, _, ok := BestBinarySplit(nil, 2); ok {
		t.Fatal("empty input admits no cut")
	}
}

// TestBestBinarySplitHugeValues splits between values whose sum
// overflows float64: the midpoint must stay finite and between them.
func TestBestBinarySplitHugeValues(t *testing.T) {
	for _, sign := range []float64{1, -1} {
		lo, hi := sign*math.MaxFloat64/1.5, sign*math.MaxFloat64
		if lo > hi {
			lo, hi = hi, lo
		}
		vs := []LabeledValue{{lo, 0}, {lo, 0}, {hi, 1}, {hi, 1}}
		cut, _, ok := BestBinarySplit(vs, 2)
		if !ok || math.IsInf(cut, 0) || !(lo < cut && cut < hi) {
			t.Fatalf("split of %v|%v: cut %v ok %v, want a finite cut between them", lo, hi, cut, ok)
		}
	}
}

func TestBestBinarySplitCutBetweenValues(t *testing.T) {
	// Property: the returned cut must lie strictly between two observed
	// distinct values, and gain must be within [0, H(labels)].
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		vs := make([]LabeledValue, n)
		for i := range vs {
			vs[i] = LabeledValue{Value: float64(r.Intn(10)), Label: r.Intn(2)}
		}
		SortLabeledValues(vs)
		cut, gain, ok := BestBinarySplit(vs, 2)
		if !ok {
			return true
		}
		counts := []int{0, 0}
		for _, v := range vs {
			counts[v.Label]++
		}
		if gain < -1e-9 || gain > Entropy(counts)+1e-9 {
			return false
		}
		below, above := false, false
		for _, v := range vs {
			if v.Value < cut {
				below = true
			}
			if v.Value > cut {
				above = true
			}
			if v.Value == cut {
				return false // cuts are midpoints, never observed values
			}
		}
		return below && above
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyScore(t *testing.T) {
	// Perfectly separable gene has score = H(class); useless gene ~0.
	values := []float64{1, 2, 3, 10, 11, 12}
	labels := []int{0, 0, 0, 1, 1, 1}
	if got := EntropyScore(values, labels, 2); !almostEqual(got, 1) {
		t.Fatalf("separable score = %v, want 1", got)
	}
	flat := []float64{5, 5, 5, 5, 5, 5}
	if got := EntropyScore(flat, labels, 2); got != 0 {
		t.Fatalf("flat gene score = %v, want 0", got)
	}
}

func TestChiSquare(t *testing.T) {
	// Independent table → 0.
	if got := ChiSquare([][]int{{10, 10}, {20, 20}}); !almostEqual(got, 0) {
		t.Fatalf("independent chi2 = %v", got)
	}
	// Known value: 2x2 table {{10,20},{30,40}}.
	// chi2 = n(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)) = 100*(400-600)^2/(30*70*40*60)
	want := 100.0 * 200 * 200 / (30 * 70 * 40 * 60)
	if got := ChiSquareBinary(10, 20, 30, 40); !almostEqual(got, want) {
		t.Fatalf("chi2 = %v, want %v", got, want)
	}
	if got := ChiSquare(nil); got != 0 {
		t.Fatalf("empty chi2 = %v", got)
	}
	if got := ChiSquare([][]int{{0, 0}, {0, 0}}); got != 0 {
		t.Fatalf("zero chi2 = %v", got)
	}
}

func TestChiSquareNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := [][]int{
			{r.Intn(30), r.Intn(30)},
			{r.Intn(30), r.Intn(30)},
		}
		return ChiSquare(tab) >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRank(t *testing.T) {
	scores := []float64{0.5, 2.0, 1.0, 2.0, 0.1}
	got := Rank(scores)
	// Descending: 2.0 (tie, rank 1), 1.0 rank 3, 0.5 rank 4, 0.1 rank 5.
	want := []int{4, 1, 3, 1, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank = %v, want %v", got, want)
	}
	if got := Rank(nil); len(got) != 0 {
		t.Fatalf("Rank(nil) = %v", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5) {
		t.Fatalf("Mean = %v", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2) {
		t.Fatalf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestSortLabeledValuesDeterministic(t *testing.T) {
	vs := []LabeledValue{{1, 1}, {1, 0}, {0, 1}}
	SortLabeledValues(vs)
	want := []LabeledValue{{0, 1}, {1, 0}, {1, 1}}
	if !reflect.DeepEqual(vs, want) {
		t.Fatalf("sorted = %v, want %v", vs, want)
	}
}

// referenceSplit is the split loop as first written, with a fresh count
// vector per boundary and Entropy per block: the oracle the table-driven
// Splitter must match bit for bit.
func referenceSplit(vs []LabeledValue, numClasses int) (float64, float64, bool) {
	n := len(vs)
	if n < 2 {
		return 0, 0, false
	}
	totalCounts := make([]int, numClasses)
	for _, v := range vs {
		totalCounts[v.Label]++
	}
	baseH := Entropy(totalCounts)
	leftCounts := make([]int, numClasses)
	bestGain, bestCut, found := math.Inf(-1), 0.0, false
	for i := 0; i < n-1; i++ {
		leftCounts[vs[i].Label]++
		if vs[i].Value == vs[i+1].Value {
			continue
		}
		rightCounts := make([]int, numClasses)
		for c := range rightCounts {
			rightCounts[c] = totalCounts[c] - leftCounts[c]
		}
		w := float64(i+1)/float64(n)*Entropy(leftCounts) +
			float64(n-i-1)/float64(n)*Entropy(rightCounts)
		if g := baseH - w; g > bestGain {
			bestGain, bestCut, found = g, (vs[i].Value+vs[i+1].Value)/2, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestCut, bestGain, true
}

func TestQuickSplitterMatchesReference(t *testing.T) {
	// Columns both inside and beyond the entropy table (maxRows 8 leaves
	// longer columns to the direct path), over two to five classes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		n := r.Intn(30)
		vs := make([]LabeledValue, n)
		for i := range vs {
			vs[i] = LabeledValue{Value: float64(r.Intn(12)), Label: r.Intn(k)}
		}
		SortLabeledValues(vs)
		sp := NewSplitter(k, 8)
		wc, wg, wok := referenceSplit(vs, k)
		c, g, ok := sp.BestSplit(vs)
		if ok != wok || math.Float64bits(c) != math.Float64bits(wc) || math.Float64bits(g) != math.Float64bits(wg) {
			return false
		}
		counts := make([]int, k)
		for _, v := range vs {
			counts[v.Label]++
		}
		return math.Float64bits(sp.Fork().Entropy(counts)) == math.Float64bits(Entropy(counts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitterBestSplitAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vs := make([]LabeledValue, 200)
	for i := range vs {
		vs[i] = LabeledValue{Value: r.NormFloat64(), Label: r.Intn(3)}
	}
	SortLabeledValues(vs)
	sp := NewSplitter(3, len(vs))
	if allocs := testing.AllocsPerRun(20, func() { sp.BestSplit(vs) }); allocs != 0 {
		t.Fatalf("BestSplit allocates %.0f times per call, want 0", allocs)
	}
}
