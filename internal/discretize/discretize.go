// Package discretize implements entropy-minimized discretization of
// real-valued gene expression matrices with the Fayyad–Irani MDL
// stopping criterion — the same algorithm behind the MLC++ "entropy"
// partition the paper uses. Genes for which MDL accepts no cut point
// carry no class information and are dropped, so discretization doubles
// as feature selection ("# Genes after Discretization" in Table 1).
package discretize

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Discretizer holds per-gene cut points learned from a training matrix
// and converts matrices into discretized item datasets. Cut points for
// gene g are Cuts[g], sorted ascending; an empty slice means the gene
// was rejected by the MDL criterion and produces no items.
type Discretizer struct {
	Cuts       [][]float64
	GeneNames  []string
	ClassNames []string

	items     []dataset.Item
	itemStart []int // first item id of each gene; -1 for dropped genes
}

// Fit learns cut points from the training matrix m.
func Fit(m *Matrix) (*Discretizer, error) { return FitMatrix(m) }

// Matrix is an alias re-exported for readability of the Fit signature.
type Matrix = dataset.Matrix

// FitMatrix learns MDL-accepted cut points for every gene of m. Genes
// are independent, so they are fitted on GOMAXPROCS workers over
// contiguous gene ranges, each with its own reused scratch; every gene's
// cuts are a pure function of its column, whatever the worker count.
func FitMatrix(m *dataset.Matrix) (*Discretizer, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	genes := m.NumGenes()
	dz := &Discretizer{
		Cuts:       make([][]float64, genes),
		GeneNames:  append([]string(nil), m.GeneNames...),
		ClassNames: append([]string(nil), m.ClassNames...),
	}
	labels := make([]int, m.NumRows())
	for r, l := range m.Labels {
		labels[r] = int(l)
	}
	k := len(m.ClassNames)
	sp := stats.NewSplitter(k, m.NumRows())
	workers := min(runtime.GOMAXPROCS(0), genes)
	if workers <= 1 {
		newFitScratch(sp, labels, k).fitGenes(m, dz.Cuts, 0, genes)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			fs := newFitScratch(sp.Fork(), labels, k)
			lo, hi := w*genes/workers, (w+1)*genes/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				fs.fitGenes(m, dz.Cuts, lo, hi)
			}()
		}
		wg.Wait()
	}
	dz.buildItems()
	return dz, nil
}

// fitScratch is one fit worker's reused memory: the splitter, the
// sorted column, class-count arrays for the MDL test and the current
// gene's cuts.
type fitScratch struct {
	sp                 *stats.Splitter
	labels             []int
	vs                 []stats.LabeledValue
	total, left, right []int
	cuts               []float64
}

func newFitScratch(sp *stats.Splitter, labels []int, numClasses int) *fitScratch {
	return &fitScratch{
		sp:     sp,
		labels: labels,
		vs:     make([]stats.LabeledValue, len(labels)),
		total:  make([]int, numClasses),
		left:   make([]int, numClasses),
		right:  make([]int, numClasses),
	}
}

// fitGenes stores the cuts of genes [lo, hi) into cuts. Each gene with
// at least one cut costs exactly one allocation, its cuts slice.
func (fs *fitScratch) fitGenes(m *dataset.Matrix, cuts [][]float64, lo, hi int) {
	for g := lo; g < hi; g++ {
		for r, row := range m.Values {
			fs.vs[r] = stats.LabeledValue{Value: row[g], Label: fs.labels[r]}
		}
		stats.SortLabeledValues(fs.vs)
		fs.cuts = fs.cuts[:0]
		fs.mdlPartition(fs.vs)
		if len(fs.cuts) > 0 {
			slices.Sort(fs.cuts)
			cuts[g] = slices.Clone(fs.cuts)
		}
	}
}

// mdlPartition recursively splits the sorted labeled values, appending
// accepted cut points to fs.cuts.
//
//vet:allocfree
func (fs *fitScratch) mdlPartition(vs []stats.LabeledValue) {
	cut, gain, ok := fs.sp.BestSplit(vs)
	if !ok {
		return
	}
	// Locate the boundary index: first element with value > cut.
	b := sort.Search(len(vs), func(i int) bool { return vs[i].Value > cut })
	if !fs.mdlAccepts(vs, b, gain) {
		return
	}
	fs.cuts = append(fs.cuts, cut)
	fs.mdlPartition(vs[:b])
	fs.mdlPartition(vs[b:])
}

// mdlAccepts applies the Fayyad–Irani MDLPC criterion to splitting s
// into s1 = s[:b] and s2 = s[b:]:
//
//	Gain(S;T) > log2(N-1)/N + Δ(S;T)/N
//	Δ(S;T) = log2(3^k - 2) - [k·H(S) - k1·H(S1) - k2·H(S2)]
//
// where k, k1, k2 are the numbers of distinct classes present in S, S1,
// S2. Entropies sum their class terms in class order.
//
//vet:allocfree
func (fs *fitScratch) mdlAccepts(s []stats.LabeledValue, b int, gain float64) bool {
	n := float64(len(s))
	if n < 2 {
		return false
	}
	total, left, right := fs.total, fs.left, fs.right
	clear(total)
	clear(left)
	for i, v := range s {
		total[v.Label]++
		if i < b {
			left[v.Label]++
		}
	}
	for c := range right {
		right[c] = total[c] - left[c]
	}
	k := float64(distinctClasses(total))
	k1 := float64(distinctClasses(left))
	k2 := float64(distinctClasses(right))
	h := fs.sp.Entropy(total)
	h1 := fs.sp.Entropy(left)
	h2 := fs.sp.Entropy(right)
	delta := math.Log2(math.Pow(3, k)-2) - (k*h - k1*h1 - k2*h2)
	threshold := (math.Log2(n-1) + delta) / n
	return gain > threshold
}

// distinctClasses counts the classes present in a class-count array.
func distinctClasses(counts []int) int {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// buildItems enumerates the item table: one item per interval of each
// retained gene, in gene order.
func (dz *Discretizer) buildItems() {
	n := 0
	for _, cuts := range dz.Cuts {
		if len(cuts) > 0 {
			n += len(cuts) + 1
		}
	}
	dz.items = make([]dataset.Item, 0, n)
	dz.itemStart = make([]int, len(dz.Cuts))
	for g, cuts := range dz.Cuts {
		if len(cuts) == 0 {
			dz.itemStart[g] = -1
			continue
		}
		dz.itemStart[g] = len(dz.items)
		lo := math.Inf(-1)
		for i := 0; i <= len(cuts); i++ {
			hi := math.Inf(1)
			if i < len(cuts) {
				hi = cuts[i]
			}
			dz.items = append(dz.items, dataset.Item{
				Gene:     g,
				GeneName: dz.GeneNames[g],
				Lo:       lo,
				Hi:       hi,
			})
			lo = hi
		}
	}
}

// NumSelectedGenes returns how many genes survived discretization.
func (dz *Discretizer) NumSelectedGenes() int {
	n := 0
	for _, c := range dz.Cuts {
		if len(c) > 0 {
			n++
		}
	}
	return n
}

// SelectedGenes returns the indices of genes with at least one cut.
func (dz *Discretizer) SelectedGenes() []int {
	var out []int
	for g, c := range dz.Cuts {
		if len(c) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// NumItems returns the total number of items produced.
func (dz *Discretizer) NumItems() int { return len(dz.items) }

// itemFor returns the item id for gene g at value v, or -1 when the gene
// was dropped.
func (dz *Discretizer) itemFor(g int, v float64) int {
	start := dz.itemStart[g]
	if start < 0 {
		return -1
	}
	cuts := dz.Cuts[g]
	// Interval index = count of cuts <= v.
	idx := sort.SearchFloat64s(cuts, v)
	// SearchFloat64s returns the first i with cuts[i] >= v; a value equal
	// to a cut belongs to the right interval ([Lo,Hi) semantics).
	if idx < len(cuts) && cuts[idx] == v {
		idx++
	}
	return start + idx
}

// RowItems maps one raw expression row (one value per gene) to its
// item ids under the learned cut points. Genes rejected by MDL yield no
// item; extra or missing values beyond the fitted gene count are
// ignored.
func (dz *Discretizer) RowItems(values []float64) []int {
	out := make([]int, 0, dz.NumSelectedGenes())
	n := len(values)
	if n > len(dz.Cuts) {
		n = len(dz.Cuts)
	}
	for g := 0; g < n; g++ {
		if it := dz.itemFor(g, values[g]); it >= 0 {
			out = append(out, it)
		}
	}
	return out
}

// Transform converts a matrix into a discretized dataset using the
// learned cut points. The matrix must have the same gene schema as the
// training matrix.
func (dz *Discretizer) Transform(m *dataset.Matrix) (*dataset.Dataset, error) {
	if len(m.GeneNames) != len(dz.GeneNames) {
		return nil, fmt.Errorf("discretize: matrix has %d genes, discretizer fitted on %d", len(m.GeneNames), len(dz.GeneNames))
	}
	d := &dataset.Dataset{
		Items:      dz.items,
		Rows:       make([][]int, m.NumRows()),
		Labels:     append([]dataset.Label(nil), m.Labels...),
		ClassNames: append([]string(nil), dz.ClassNames...),
	}
	for r, row := range m.Values {
		items := make([]int, 0, dz.NumSelectedGenes())
		for g, v := range row {
			if it := dz.itemFor(g, v); it >= 0 {
				items = append(items, it)
			}
		}
		d.Rows[r] = items // gene order is ascending, so items are sorted
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
