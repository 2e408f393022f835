// Package stats provides the information-theoretic and statistical
// scores the paper relies on: class entropy, information gain of binary
// splits (used by entropy discretization, C4.5, and FindLB's item
// ranking), and chi-square association (used by the Figure 8 gene-rank
// analysis).
package stats

import (
	"math"
	"slices"
	"sort"
)

// Entropy returns the Shannon entropy (base 2) of a label count vector.
// Zero counts contribute nothing; an empty or all-zero vector has
// entropy 0. Terms are summed in count-vector order, so the result is
// a pure function of counts.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		h -= plogp(c, total)
	}
	return h
}

// plogp is one entropy term p·log2(p) for p = c/total. The explicit
// conversion rounds the product before it is subtracted, so no target
// may fuse it into a multiply-add: a term looked up from a Splitter's
// table is then bit-identical to one computed here.
func plogp(c, total int) float64 {
	p := float64(c) / float64(total)
	return float64(p * math.Log2(p))
}

// WeightedEntropy returns the class-count-weighted average entropy of a
// partition, where parts[i] is the label count vector of block i.
func WeightedEntropy(parts [][]int) float64 {
	total := 0
	for _, p := range parts {
		for _, c := range p {
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, p := range parts {
		n := 0
		for _, c := range p {
			n += c
		}
		if n == 0 {
			continue
		}
		h += float64(n) / float64(total) * Entropy(p)
	}
	return h
}

// LabeledValue pairs one sample's value for a single gene with its class.
type LabeledValue struct {
	Value float64
	Label int
}

// SortLabeledValues sorts in ascending (Value, Label) order. Values
// must not be NaN, so this is a total order: elements that compare
// equal differ at most in the sign of a zero. Since -0 == +0, such
// elements never form a split boundary and never change a midpoint, so
// the sort need not be stable.
func SortLabeledValues(vs []LabeledValue) {
	slices.SortFunc(vs, func(a, b LabeledValue) int {
		if a.Value < b.Value {
			return -1
		}
		if a.Value > b.Value {
			return 1
		}
		return a.Label - b.Label
	})
}

// maxTableRows bounds the rows a Splitter's p·log2(p) table covers. The
// table holds rows²/2 float64s (16 MiB at the bound); longer columns
// compute their terms directly, with the same expression.
const maxTableRows = 2048

// Splitter is reusable working memory for the split and entropy kernels
// over label counts in [0, numClasses). Entropy terms p·log2(p) for
// every total up to the table size are computed once, by the same
// expression Entropy uses, and summed in class order, so every result
// is bit-identical to Entropy and BestBinarySplit on the same input. A
// Splitter is not safe for concurrent use; Fork one per goroutine.
type Splitter struct {
	table    []float64 // table[t*(t+1)/2+c] = plogp(c, t) for t <= maxTotal
	maxTotal int
	total    []int
	left     []int
	right    []int
}

// NewSplitter returns a splitter for numClasses labels whose entropy
// table covers columns of up to maxRows values (capped at
// maxTableRows). maxRows 0 builds no table, which suits a single split.
func NewSplitter(numClasses, maxRows int) *Splitter {
	maxRows = max(0, min(maxRows, maxTableRows))
	table := make([]float64, (maxRows+1)*(maxRows+2)/2)
	for t := 1; t <= maxRows; t++ {
		row := table[t*(t+1)/2:]
		for c := 1; c <= t; c++ {
			row[c] = plogp(c, t)
		}
	}
	return newSplitter(table, maxRows, numClasses)
}

func newSplitter(table []float64, maxTotal, numClasses int) *Splitter {
	return &Splitter{
		table:    table,
		maxTotal: maxTotal,
		total:    make([]int, numClasses),
		left:     make([]int, numClasses),
		right:    make([]int, numClasses),
	}
}

// Fork returns a splitter that shares s's read-only entropy table but
// owns its count buffers, for use on another goroutine.
func (s *Splitter) Fork() *Splitter {
	return newSplitter(s.table, s.maxTotal, len(s.total))
}

// term returns plogp(c, total), from the table when it covers total.
//
//vet:allocfree
func (s *Splitter) term(c, total int) float64 {
	if total <= s.maxTotal {
		return s.table[total*(total+1)/2+c]
	}
	return plogp(c, total)
}

// entropy is Entropy(counts) for counts summing to total > 0.
//
//vet:allocfree
func (s *Splitter) entropy(counts []int, total int) float64 {
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		h -= s.term(c, total)
	}
	return h
}

// Entropy returns Entropy(counts), bit for bit, from the table.
//
//vet:allocfree
func (s *Splitter) Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return s.entropy(counts, total)
}

// BestSplit is BestBinarySplit on the splitter's reused buffers: it
// finds the boundary midpoint of vs (sorted ascending by value) whose
// two-block partition has the least weighted class entropy, and returns
// the cut, the split's information gain, and ok = false when vs has no
// boundary between distinct values.
//
//vet:allocfree
func (s *Splitter) BestSplit(vs []LabeledValue) (cut float64, gain float64, ok bool) {
	n := len(vs)
	if n < 2 {
		return 0, 0, false
	}
	total, left, right := s.total, s.left, s.right
	clear(total)
	clear(left)
	for _, v := range vs {
		total[v.Label]++
	}
	baseH := s.entropy(total, n)

	bestGain := math.Inf(-1)
	bestCut := 0.0
	found := false
	for i := 0; i < n-1; i++ {
		left[vs[i].Label]++
		if vs[i].Value == vs[i+1].Value {
			continue // not a boundary between distinct values
		}
		for c := range right {
			right[c] = total[c] - left[c]
		}
		w := float64(i+1)/float64(n)*s.entropy(left, i+1) +
			float64(n-i-1)/float64(n)*s.entropy(right, n-i-1)
		g := baseH - w
		if g > bestGain {
			bestGain = g
			bestCut = (vs[i].Value + vs[i+1].Value) / 2
			if math.IsInf(bestCut, 0) {
				// The sum of two values beyond MaxFloat64/2 overflowed.
				// An infinite cut leaves one side of the split empty,
				// and the MDL recursion would repeat the same split
				// until the stack overflows; halving first keeps the
				// midpoint finite. Every cut that did not overflow
				// keeps its bits.
				bestCut = vs[i].Value/2 + vs[i+1].Value/2
			}
			found = true
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestCut, bestGain, true
}

// BestBinarySplit finds the cut point of a sorted labeled sequence that
// minimizes the weighted entropy of the induced two-block partition.
// Candidate cuts are boundary midpoints between adjacent distinct values.
// It returns the cut value, the information gain of the split, and ok =
// false when no valid cut exists (all values identical or fewer than two
// samples). vs must be sorted ascending by value. Callers splitting many
// columns should reuse a Splitter instead.
func BestBinarySplit(vs []LabeledValue, numClasses int) (cut float64, gain float64, ok bool) {
	return NewSplitter(numClasses, 0).BestSplit(vs)
}

// EntropyScore is the discriminant ability of a gene measured as the
// information gain of its best binary split against the class labels —
// the score [3] that FindLB uses to rank items. Higher is more
// discriminant. A gene whose values cannot be split scores 0.
func EntropyScore(values []float64, labels []int, numClasses int) float64 {
	vs := make([]LabeledValue, len(values))
	for i := range values {
		vs[i] = LabeledValue{Value: values[i], Label: labels[i]}
	}
	SortLabeledValues(vs)
	_, gain, ok := BestBinarySplit(vs, numClasses)
	if !ok {
		return 0
	}
	return gain
}

// ChiSquare returns the chi-square statistic of a contingency table
// table[i][j] = count of (attribute value i, class j). Cells with zero
// expected count contribute nothing.
func ChiSquare(table [][]int) float64 {
	if len(table) == 0 {
		return 0
	}
	rows := len(table)
	cols := len(table[0])
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	total := 0.0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := float64(table[i][j])
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	chi := 0.0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			exp := rowSum[i] * colSum[j] / total
			if exp == 0 {
				continue
			}
			d := float64(table[i][j]) - exp
			chi += d * d / exp
		}
	}
	return chi
}

// ChiSquareBinary returns the chi-square statistic of a presence/absence
// attribute against a binary class, given the four cell counts:
// a = present & positive, b = present & negative,
// c = absent & positive, d = absent & negative.
func ChiSquareBinary(a, b, c, d int) float64 {
	return ChiSquare([][]int{{a, b}, {c, d}})
}

// Rank assigns dense ranks (1 = best) to scores sorted descending. Ties
// share the smallest rank of the tied block. The returned slice is
// parallel to scores.
func Rank(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	ranks := make([]int, len(scores))
	for pos, i := range idx {
		// vetsuite:allow floatcmp -- dense ranking ties on bit-identical scores; stats stays free of the rules package
		if pos > 0 && scores[i] == scores[idx[pos-1]] {
			ranks[i] = ranks[idx[pos-1]]
		} else {
			ranks[i] = pos + 1
		}
	}
	return ranks
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
