package engine

import (
	"context"
	"errors"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rules"
)

// collector is a no-prune visitor that records every group.
type collector struct {
	groups []collected
}

type collected struct {
	items []int
	rows  []int
	xp    int
	xn    int
}

func (c *collector) UpdateThresholds(xPos, candPos []int) Threshold       { return Threshold{} }
func (c *collector) PruneBeforeScan(_ Threshold, xp, xn, rp, rn int) bool { return false }
func (c *collector) PruneAfterScan(_ Threshold, xp, xn, mp, rn int) bool  { return false }
func (c *collector) OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int) {
	c.groups = append(c.groups, collected{
		items: append([]int(nil), items...),
		rows:  rows.Indices(),
		xp:    xp,
		xn:    xn,
	})
}

// parCollector adds Fork/Flush/Merge so the collector can drive the
// parallel mode: forks record privately, the scheduler seals their
// batches at task hand-off boundaries and streams them back in
// sequential enumeration order, which must reproduce the sequential
// event order exactly.
type parCollector struct {
	collector
}

func (c *parCollector) Fork() Visitor { return &parCollector{} }
func (c *parCollector) Flush() any {
	if len(c.groups) == 0 {
		return nil
	}
	gs := c.groups
	c.groups = nil
	return gs
}
func (c *parCollector) Merge(batch any) {
	c.groups = append(c.groups, batch.([]collected)...)
}

// enumeratorFor builds an enumerator over the running example with
// identity row order (already class dominant: rows 0-2 are class C).
func enumeratorFor(t *testing.T, v Visitor, disableBackward bool) (*Enumerator, []int) {
	t.Helper()
	d, _ := dataset.RunningExample()
	itemRows := make([]*bitset.Set, d.NumItems())
	items := make([]int, d.NumItems())
	for i := 0; i < d.NumItems(); i++ {
		itemRows[i] = d.ItemRows(i)
		items[i] = i
	}
	return &Enumerator{
		NumRows:         d.NumRows(),
		NumPos:          3,
		ItemRows:        itemRows,
		Visitor:         v,
		DisableBackward: disableBackward,
	}, items
}

func mustRun(t *testing.T, e *Enumerator, items []int) Stats {
	t.Helper()
	stats, err := e.Run(context.Background(), items)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func TestEnumerationFindsAllClosedSets(t *testing.T) {
	c := &collector{}
	eng, items := enumeratorFor(t, c, false)
	stats := mustRun(t, eng, items)
	if stats.Nodes == 0 {
		t.Fatal("no nodes visited")
	}
	// Collect distinct closed row sets; compare against brute force over
	// the dataset.
	d, _ := dataset.RunningExample()
	want := map[string]bool{}
	for mask := 1; mask < 1<<5; mask++ {
		rows := bitset.New(5)
		for r := 0; r < 5; r++ {
			if mask&(1<<r) != 0 {
				rows.Add(r)
			}
		}
		its := d.CommonItems(rows)
		if len(its) == 0 {
			continue
		}
		sup := d.SupportSet(its)
		if sup.CountBelow(3) == 0 { // xp > 0 filter matches engine
			continue
		}
		want[sup.Key()] = true
	}
	got := map[string]bool{}
	for _, g := range c.groups {
		s := bitset.New(5)
		for _, r := range g.rows {
			s.Add(r)
		}
		if got[s.Key()] {
			t.Fatalf("closed set %v reported twice with backward pruning on", g.rows)
		}
		got[s.Key()] = true
	}
	if len(got) != len(want) {
		t.Fatalf("found %d closed sets, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatal("missing closed set")
		}
	}
}

func TestDisableBackwardStillComplete(t *testing.T) {
	on := &collector{}
	engOn, items := enumeratorFor(t, on, false)
	statsOn := mustRun(t, engOn, items)

	off := &collector{}
	engOff, items2 := enumeratorFor(t, off, true)
	statsOff := mustRun(t, engOff, items2)

	if statsOff.Nodes < statsOn.Nodes {
		t.Fatalf("disabling backward pruning should not reduce nodes: %d < %d", statsOff.Nodes, statsOn.Nodes)
	}
	// The distinct closed sets must be identical.
	distinct := func(gs []collected) map[string]bool {
		m := map[string]bool{}
		for _, g := range gs {
			s := bitset.New(5)
			for _, r := range g.rows {
				s.Add(r)
			}
			m[s.Key()] = true
		}
		return m
	}
	a, b := distinct(on.groups), distinct(off.groups)
	if len(a) != len(b) {
		t.Fatalf("distinct closed sets differ: %d vs %d", len(a), len(b))
	}
}

func TestGroupRowConsistency(t *testing.T) {
	// For every reported group: xp+xn == |rows|, items nonempty and
	// sorted, rows = support set of items.
	c := &collector{}
	eng, items := enumeratorFor(t, c, false)
	mustRun(t, eng, items)
	d, _ := dataset.RunningExample()
	for _, g := range c.groups {
		if g.xp+g.xn != len(g.rows) {
			t.Fatalf("xp+xn=%d but |rows|=%d", g.xp+g.xn, len(g.rows))
		}
		if len(g.items) == 0 || !sort.IntsAreSorted(g.items) {
			t.Fatalf("bad items %v", g.items)
		}
		sup := d.SupportSet(g.items).Indices()
		got := append([]int(nil), g.rows...)
		sort.Ints(got)
		if len(sup) != len(got) {
			t.Fatalf("rows %v != support %v of items %v", got, sup, g.items)
		}
		for i := range sup {
			if sup[i] != got[i] {
				t.Fatalf("rows %v != support %v", got, sup)
			}
		}
	}
}

func TestEmptyRun(t *testing.T) {
	c := &collector{}
	eng, _ := enumeratorFor(t, c, false)
	stats := mustRun(t, eng, nil)
	if stats.Nodes != 0 || len(c.groups) != 0 {
		t.Fatal("empty item list must do nothing")
	}
}

// pruneAll prunes everything at the loose stage.
type pruneAll struct{ collector }

func (p *pruneAll) PruneBeforeScan(_ Threshold, xp, xn, rp, rn int) bool { return true }

func TestPruneBeforeScanStopsDescent(t *testing.T) {
	p := &pruneAll{}
	eng, items := enumeratorFor(t, p, false)
	stats := mustRun(t, eng, items)
	if stats.Nodes != 1 || stats.PrunedBeforeScan != 1 {
		t.Fatalf("stats = %+v, want exactly the root pruned", stats)
	}
	if len(p.groups) != 0 {
		t.Fatal("no groups should be reported")
	}
}

func TestMaxNodesAborts(t *testing.T) {
	c := &collector{}
	eng, items := enumeratorFor(t, c, false)
	eng.MaxNodes = 2
	stats := mustRun(t, eng, items)
	if !stats.Aborted {
		t.Fatal("tiny budget should abort")
	}
	if stats.Nodes > 3 {
		t.Fatalf("nodes = %d, want <= 3", stats.Nodes)
	}
	if ErrNodeBudget.Error() == "" {
		t.Fatal("ErrNodeBudget must describe itself")
	}
}

func TestMaxNodesAbortsParallel(t *testing.T) {
	c := &parCollector{}
	eng, items := enumeratorFor(t, c, false)
	eng.MaxNodes = 2
	eng.Workers = 4
	stats := mustRun(t, eng, items)
	if !stats.Aborted {
		t.Fatal("tiny budget should abort in parallel mode too")
	}
}

func TestEmptyUniverse(t *testing.T) {
	c := &collector{}
	eng := &Enumerator{NumRows: 0, NumPos: 0, Visitor: c}
	if stats := mustRun(t, eng, []int{0}); stats.Nodes != 0 {
		t.Fatal("zero-row engine must do nothing")
	}
}

func TestCancelledContextStopsRun(t *testing.T) {
	c := &collector{}
	eng, items := enumeratorFor(t, c, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := eng.Run(ctx, items)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Aborted {
		t.Fatal("cancellation must not masquerade as a budget abort")
	}
}

func TestCancelledContextStopsParallelRun(t *testing.T) {
	c := &parCollector{}
	eng, items := enumeratorFor(t, c, false)
	eng.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, items); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBudgetChargePrefersContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBudget(ctx, 1)
	if err := b.Charge(5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled over ErrNodeBudget", err)
	}
	b = NewBudget(nil, 2)
	if err := b.Charge(2); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := b.Charge(1); !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if b.Nodes() != 3 {
		t.Fatalf("Nodes() = %d, want 3", b.Nodes())
	}
}

func TestParallelMatchesSequentialCollector(t *testing.T) {
	seq := &parCollector{}
	engSeq, items := enumeratorFor(t, seq, false)
	mustRun(t, engSeq, items)

	for _, workers := range []int{2, 3, 8} {
		par := &parCollector{}
		engPar, items2 := enumeratorFor(t, par, false)
		engPar.Workers = workers
		stats := mustRun(t, engPar, items2)
		if len(par.groups) != len(seq.groups) {
			t.Fatalf("workers=%d: %d groups, want %d", workers, len(par.groups), len(seq.groups))
		}
		for i := range seq.groups {
			a, b := seq.groups[i], par.groups[i]
			if len(a.items) != len(b.items) || a.xp != b.xp || a.xn != b.xn || len(a.rows) != len(b.rows) {
				t.Fatalf("workers=%d: group %d differs: %+v vs %+v", workers, i, a, b)
			}
			for j := range a.items {
				if a.items[j] != b.items[j] {
					t.Fatalf("workers=%d: group %d items differ", workers, i)
				}
			}
			for j := range a.rows {
				if a.rows[j] != b.rows[j] {
					t.Fatalf("workers=%d: group %d rows differ", workers, i)
				}
			}
		}
		if stats.Nodes != engSeq.stats.Nodes {
			t.Fatalf("workers=%d: nodes %d, want %d (no-prune search must be identical)", workers, stats.Nodes, engSeq.stats.Nodes)
		}
	}
}

func TestFloorsFrontierVersioned(t *testing.T) {
	f := NewFloors(3)
	conf := []float64{-1, -1, -1}
	sup := []int{-1, -1, -1}
	// Nothing published yet: version 0 matches, nothing is copied.
	if v, m := f.Frontier(0, conf, sup); v != 0 || m != 0 || conf[0] != -1 || sup[2] != -1 {
		t.Fatalf("empty board: version %d minsup %d, conf=%v sup=%v", v, m, conf, sup)
	}
	f.PublishFrontier([]float64{0.5, 0.9, 0}, []int{2, 3, 0})
	v1, _ := f.Frontier(0, conf, sup)
	if v1 == 0 || rules.CompareConf(conf[1], 0.9) != 0 || sup[0] != 2 || sup[2] != 0 {
		t.Fatalf("after publish: version %d conf=%v sup=%v", v1, conf, sup)
	}
	// A poll at the current version copies nothing.
	conf[0], sup[0] = -1, -1
	if v, _ := f.Frontier(v1, conf, sup); v != v1 || conf[0] != -1 || sup[0] != -1 {
		t.Fatalf("unchanged version must not copy: version %d conf=%v sup=%v", v, conf, sup)
	}
	// The next publication overwrites and bumps the version.
	f.PublishFrontier([]float64{0.7, 0.9, 0.1}, []int{1, 4, 1})
	v2, _ := f.Frontier(v1, conf, sup)
	if v2 == v1 || rules.CompareConf(conf[0], 0.7) != 0 || sup[0] != 1 || sup[1] != 4 {
		t.Fatalf("republish: version %d -> %d conf=%v sup=%v", v1, v2, conf, sup)
	}
	if mc := f.MinConf(); rules.CompareConf(mc, 0.1) != 0 {
		t.Fatalf("MinConf = %v, want the weakest frontier confidence 0.1", mc)
	}
	// The support floor keeps its maximum and rides every poll.
	f.RaiseMinsup(5)
	f.RaiseMinsup(3)
	if v, m := f.Frontier(v2, conf, sup); v != v2 || m != 5 {
		t.Fatalf("minsup: version %d minsup %d, want %d and 5", v, m, v2)
	}
}

type fakeMiner struct{ name string }

func (m fakeMiner) Name() string { return m.name }
func (m fakeMiner) Mine(ctx context.Context, d *dataset.Dataset, opts Options) (*Result, Stats, error) {
	return &Result{}, Stats{}, nil
}

func TestRegistry(t *testing.T) {
	Register(fakeMiner{name: "zz-test-a"})
	Register(fakeMiner{name: "zz-test-b"})
	defer func() {
		registryMu.Lock()
		delete(registry, "zz-test-a")
		delete(registry, "zz-test-b")
		registryMu.Unlock()
	}()
	if _, ok := Lookup("zz-test-a"); !ok {
		t.Fatal("registered miner not found")
	}
	if _, ok := Lookup("zz-test-missing"); ok {
		t.Fatal("unregistered miner found")
	}
	names := Miners()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Miners() not sorted: %v", names)
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if got := (Options{Workers: 3}).EffectiveWorkers(); got != 3 {
		t.Fatalf("explicit workers: got %d", got)
	}
	if got := (Options{}).EffectiveWorkers(); got < 1 {
		t.Fatalf("default workers: got %d", got)
	}
}
