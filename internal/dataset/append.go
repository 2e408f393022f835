package dataset

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
)

// AppendRows returns a new dataset sharing d's item table and existing
// row slices, with the given rows appended. d itself is never mutated —
// versioned snapshots stay immutable — and when d's transposed
// item→rows index has already been built, the new dataset's index is
// derived incrementally: each item's row bitset is regrown to the new
// row count and only the appended rows' bits are added, instead of
// re-scanning every row of the table. This is the fast path of the
// datastore's incremental refresh, taken when an append changes no
// gene's cut points (the common case for small appends).
func (d *Dataset) AppendRows(rows [][]int, labels []Label) (*Dataset, error) {
	if len(rows) != len(labels) {
		return nil, fmt.Errorf("dataset: append: %d rows but %d labels", len(rows), len(labels))
	}
	for i, row := range rows {
		if !sort.IntsAreSorted(row) {
			return nil, fmt.Errorf("dataset: append: row %d items not sorted", i)
		}
		for j, it := range row {
			if it < 0 || it >= len(d.Items) {
				return nil, fmt.Errorf("dataset: append: row %d references item %d outside [0,%d)",
					i, it, len(d.Items))
			}
			if j > 0 && row[j-1] == it {
				return nil, fmt.Errorf("dataset: append: row %d has duplicate item %d", i, it)
			}
		}
		if int(labels[i]) < 0 || int(labels[i]) >= len(d.ClassNames) {
			return nil, fmt.Errorf("dataset: append: row %d label %d outside [0,%d)",
				i, labels[i], len(d.ClassNames))
		}
	}
	old := len(d.Rows)
	nd := &Dataset{
		Items:      d.Items,
		Rows:       make([][]int, 0, old+len(rows)),
		Labels:     make([]Label, 0, old+len(labels)),
		ClassNames: d.ClassNames,
	}
	nd.Rows = append(append(nd.Rows, d.Rows...), rows...)
	nd.Labels = append(append(nd.Labels, d.Labels...), labels...)
	if prev := d.index.Load(); prev != nil {
		idx := make([]*bitset.Set, len(d.Items))
		for i, s := range *prev {
			grown := bitset.New(len(nd.Rows))
			s.ForEach(func(r int) bool {
				grown.Add(r)
				return true
			})
			idx[i] = grown
		}
		for j, row := range rows {
			for _, it := range row {
				idx[it].Add(old + j)
			}
		}
		nd.index.Store(&idx)
	}
	return nd, nil
}
