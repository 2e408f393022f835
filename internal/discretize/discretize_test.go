package discretize

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// sepMatrix builds a matrix with one perfectly separable gene, one noisy
// gene, and one constant gene.
func sepMatrix() *dataset.Matrix {
	return &dataset.Matrix{
		GeneNames: []string{"sep", "noise", "const"},
		Values: [][]float64{
			{1, 0.3, 7}, {2, 0.9, 7}, {3, 0.1, 7}, {4, 0.7, 7},
			{10, 0.2, 7}, {11, 0.8, 7}, {12, 0.4, 7}, {13, 0.6, 7},
		},
		Labels:     []dataset.Label{0, 0, 0, 0, 1, 1, 1, 1},
		ClassNames: []string{"pos", "neg"},
	}
}

func TestFitSelectsInformativeGene(t *testing.T) {
	dz, err := FitMatrix(sepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(dz.Cuts[0]) == 0 {
		t.Fatal("separable gene should receive a cut")
	}
	if len(dz.Cuts[2]) != 0 {
		t.Fatal("constant gene must be rejected")
	}
	if got := dz.Cuts[0][0]; got != 7 {
		t.Fatalf("cut = %v, want 7 (midpoint of 4 and 10)", got)
	}
	if dz.NumSelectedGenes() < 1 {
		t.Fatal("at least one gene should be selected")
	}
}

func TestTransformProducesOneItemPerSelectedGene(t *testing.T) {
	m := sepMatrix()
	dz, err := FitMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dz.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != m.NumRows() {
		t.Fatalf("rows = %d, want %d", d.NumRows(), m.NumRows())
	}
	want := dz.NumSelectedGenes()
	for r, row := range d.Rows {
		if len(row) != want {
			t.Fatalf("row %d has %d items, want %d", r, len(row), want)
		}
	}
	// All class-0 rows share the low interval item of gene "sep"; all
	// class-1 rows share the high interval item.
	low := d.Rows[0][0]
	high := d.Rows[4][0]
	if low == high {
		t.Fatal("separable gene should discretize the classes apart")
	}
	for r := 0; r < 4; r++ {
		if d.Rows[r][0] != low {
			t.Fatalf("row %d item = %d, want %d", r, d.Rows[r][0], low)
		}
	}
	for r := 4; r < 8; r++ {
		if d.Rows[r][0] != high {
			t.Fatalf("row %d item = %d, want %d", r, d.Rows[r][0], high)
		}
	}
}

func TestItemIntervalsTileTheLine(t *testing.T) {
	dz, err := FitMatrix(sepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	d, err := dz.Transform(sepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	// Group items per gene; they must tile (-inf, +inf) without gaps.
	byGene := map[int][]dataset.Item{}
	for _, it := range d.Items {
		byGene[it.Gene] = append(byGene[it.Gene], it)
	}
	for g, items := range byGene {
		if !math.IsInf(items[0].Lo, -1) {
			t.Errorf("gene %d first interval should start at -inf", g)
		}
		for i := 1; i < len(items); i++ {
			if items[i].Lo != items[i-1].Hi {
				t.Errorf("gene %d gap between intervals %d and %d", g, i-1, i)
			}
		}
		if !math.IsInf(items[len(items)-1].Hi, 1) {
			t.Errorf("gene %d last interval should end at +inf", g)
		}
	}
}

func TestItemForBoundarySemantics(t *testing.T) {
	dz, err := FitMatrix(sepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	cut := dz.Cuts[0][0] // 7
	lowItem := dz.itemFor(0, cut-0.001)
	cutItem := dz.itemFor(0, cut)
	if lowItem == cutItem {
		t.Fatal("value equal to the cut belongs to the right interval")
	}
	if dz.itemFor(2, 123) != -1 {
		t.Fatal("dropped gene must map to -1")
	}
}

func TestTransformSchemaMismatch(t *testing.T) {
	dz, err := FitMatrix(sepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	other := &dataset.Matrix{
		GeneNames:  []string{"only"},
		Values:     [][]float64{{1}},
		Labels:     []dataset.Label{0},
		ClassNames: []string{"pos", "neg"},
	}
	if _, err := dz.Transform(other); err == nil {
		t.Fatal("schema mismatch must error")
	}
}

func TestFitRejectsInvalidMatrix(t *testing.T) {
	bad := &dataset.Matrix{
		GeneNames:  []string{"g"},
		Values:     [][]float64{{1}, {2}},
		Labels:     []dataset.Label{0},
		ClassNames: []string{"a", "b"},
	}
	if _, err := FitMatrix(bad); err == nil {
		t.Fatal("invalid matrix must be rejected")
	}
}

func TestPureNoiseMostlyRejected(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n, g := 40, 50
	m := &dataset.Matrix{
		GeneNames:  make([]string, g),
		Values:     make([][]float64, n),
		Labels:     make([]dataset.Label, n),
		ClassNames: []string{"pos", "neg"},
	}
	for j := 0; j < g; j++ {
		m.GeneNames[j] = "noise"
	}
	for i := 0; i < n; i++ {
		row := make([]float64, g)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		m.Values[i] = row
		m.Labels[i] = dataset.Label(i % 2)
	}
	dz, err := FitMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if kept := dz.NumSelectedGenes(); kept > g/4 {
		t.Fatalf("MDL kept %d/%d pure-noise genes; expected strong rejection", kept, g)
	}
}

func TestQuickCutsStrictlyInsideObservedRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(30)
		m := &dataset.Matrix{
			GeneNames:  []string{"g"},
			Values:     make([][]float64, n),
			Labels:     make([]dataset.Label, n),
			ClassNames: []string{"a", "b"},
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := float64(r.Intn(20))
			m.Values[i] = []float64{v}
			m.Labels[i] = dataset.Label(r.Intn(2))
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		dz, err := FitMatrix(m)
		if err != nil {
			return false
		}
		for _, c := range dz.Cuts[0] {
			if c <= lo || c >= hi {
				return false
			}
		}
		// Cuts must be sorted ascending and distinct.
		for i := 1; i < len(dz.Cuts[0]); i++ {
			if dz.Cuts[0][i] <= dz.Cuts[0][i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransformIdempotentPartition(t *testing.T) {
	// Every training row maps to exactly one item per selected gene, and
	// rows with identical values for a gene share the same item.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(20)
		m := &dataset.Matrix{
			GeneNames:  []string{"g0", "g1"},
			Values:     make([][]float64, n),
			Labels:     make([]dataset.Label, n),
			ClassNames: []string{"a", "b"},
		}
		for i := 0; i < n; i++ {
			m.Values[i] = []float64{float64(r.Intn(8)), r.NormFloat64() + float64(i%2)*3}
			m.Labels[i] = dataset.Label(i % 2)
		}
		dz, err := FitMatrix(m)
		if err != nil {
			return false
		}
		d, err := dz.Transform(m)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for g := 0; g < 2; g++ {
					if m.Values[i][g] == m.Values[j][g] {
						if dz.itemFor(g, m.Values[i][g]) != dz.itemFor(g, m.Values[j][g]) {
							return false
						}
					}
				}
			}
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	dz, err := FitMatrix(sepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := dz.Write(&sb); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Cuts, dz.Cuts) {
		t.Fatalf("cuts changed:\n got %v\nwant %v", loaded.Cuts, dz.Cuts)
	}
	if !reflect.DeepEqual(loaded.GeneNames, dz.GeneNames) || !reflect.DeepEqual(loaded.ClassNames, dz.ClassNames) {
		t.Fatal("names changed")
	}
	// Transforms must be identical.
	a, err := dz.Transform(sepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Transform(sepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("transform changed across persist round trip")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no classes":    "g1 1 2\n",
		"bad float":     "#classes a b\ng1 xx\n",
		"not ascending": "#classes a b\ng1 2 1\n",
		"no genes":      "#classes a b\n",
		"single class":  "#classes only\ng1 1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRowItems(t *testing.T) {
	m := sepMatrix()
	dz, err := FitMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dz.Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range m.Values {
		got := dz.RowItems(row)
		if !reflect.DeepEqual(got, d.Rows[r]) {
			t.Fatalf("row %d: RowItems = %v, Transform = %v", r, got, d.Rows[r])
		}
	}
	// Short and long rows must not panic.
	if items := dz.RowItems(nil); len(items) != 0 {
		t.Fatal("empty row should yield no items")
	}
	long := append(append([]float64{}, m.Values[0]...), 1, 2, 3)
	_ = dz.RowItems(long)
}

// shiftedMatrix draws n rows of g genes whose values shift with the
// row's class among k, so most genes carry MDL-accepted cuts.
func shiftedMatrix(seed int64, n, g, k int) *dataset.Matrix {
	r := rand.New(rand.NewSource(seed))
	m := &dataset.Matrix{GeneNames: make([]string, g), Values: make([][]float64, n), Labels: make([]dataset.Label, n)}
	for c := 0; c < k; c++ {
		m.ClassNames = append(m.ClassNames, string(rune('a'+c)))
	}
	for j := range m.GeneNames {
		m.GeneNames[j] = "g"
	}
	for i := 0; i < n; i++ {
		m.Labels[i] = dataset.Label(i % k)
		row := make([]float64, g)
		for j := range row {
			row[j] = float64(int(m.Labels[i])*(j%3)) + r.NormFloat64()
		}
		m.Values[i] = row
	}
	return m
}

func TestThreeClassFitDeterministic(t *testing.T) {
	// MDL entropies over three or more classes must sum their terms in
	// a fixed order: a map-ordered sum may differ in the last bit between
	// runs and flip a gain-versus-threshold decision.
	m := shiftedMatrix(7, 90, 60, 3)
	first, err := FitMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if first.NumSelectedGenes() == 0 {
		t.Fatal("no gene selected; the test needs cuts to compare")
	}
	for i := 0; i < 50; i++ {
		dz, err := FitMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		if changed := DiffCuts(first.Cuts, dz.Cuts); len(changed) > 0 {
			t.Fatalf("fit %d: cuts of genes %v differ from the first fit", i, changed)
		}
	}
}

func TestFitAllocsFlatInBoundaries(t *testing.T) {
	// A fit allocates a constant amount plus one cuts slice per selected
	// gene, however many rows (and so boundaries) each column has.
	workers := runtime.GOMAXPROCS(0)
	for _, n := range []int{40, 400} {
		m := shiftedMatrix(3, n, 30, 2)
		dz, err := FitMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		bound := float64(dz.NumSelectedGenes() + 16 + 8*workers)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := FitMatrix(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("%d rows, %d selected genes: %.0f allocs per fit, want <= %.0f", n, dz.NumSelectedGenes(), allocs, bound)
		}
	}
}
