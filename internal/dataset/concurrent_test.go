package dataset_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// freshDataset builds a dataset whose item index has not been built
// yet: every call returns a new value from the same seed.
func freshDataset() *dataset.Dataset {
	r := rand.New(rand.NewSource(3))
	d := &dataset.Dataset{ClassNames: []string{"a", "b"}}
	for i := 0; i < 24; i++ {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
	}
	for row := 0; row < 20; row++ {
		var items []int
		for i := range d.Items {
			if r.Intn(3) != 0 {
				items = append(items, i)
			}
		}
		d.Rows = append(d.Rows, items)
		d.Labels = append(d.Labels, dataset.Label(row%2))
	}
	return d
}

// TestConcurrentMineFreshDataset mines both classes of one fresh
// dataset on two goroutines at once — what two jobs pinned to the same
// snapshot do — so the first use of the lazily built item index races
// between them. Run under -race; the results must equal mining each
// class alone on its own fresh copy.
func TestConcurrentMineFreshDataset(t *testing.T) {
	cfg := core.DefaultConfig(3, 2)
	var want [2]*core.Result
	for cls := range want {
		res, err := core.Mine(freshDataset(), dataset.Label(cls), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[cls] = res
	}

	shared := freshDataset()
	var got [2]*core.Result
	var errs [2]error
	var wg sync.WaitGroup
	for cls := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[cls], errs[cls] = core.Mine(shared, dataset.Label(cls), cfg)
		}()
	}
	wg.Wait()
	for cls := range got {
		if errs[cls] != nil {
			t.Fatalf("class %d: %v", cls, errs[cls])
		}
		if len(got[cls].Groups) != len(want[cls].Groups) || len(want[cls].Groups) == 0 {
			t.Fatalf("class %d: %d groups, want %d (> 0)", cls, len(got[cls].Groups), len(want[cls].Groups))
		}
		for i, g := range got[cls].Groups {
			w := want[cls].Groups[i]
			if g.Support != w.Support || !g.Rows.Equal(w.Rows) {
				t.Fatalf("class %d group %d: support %d rows %v, want %d %v",
					cls, i, g.Support, g.Rows.Indices(), w.Support, w.Rows.Indices())
			}
		}
	}
}

// TestItemRowsConcurrentFirstUse has several goroutines make the first
// ItemRows call on one fresh dataset: all must see the same complete
// index.
func TestItemRowsConcurrentFirstUse(t *testing.T) {
	d := freshDataset()
	want := freshDataset()
	const readers = 4
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := d.NumItems() - 1; i >= 0; i-- {
				if !d.ItemRows(i).Equal(want.ItemRows(i)) {
					t.Errorf("item %d: rows %v, want %v", i, d.ItemRows(i).Indices(), want.ItemRows(i).Indices())
					return
				}
			}
		}()
	}
	wg.Wait()
}
