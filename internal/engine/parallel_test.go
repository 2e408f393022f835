package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/rules"
)

// TestFloorsFrontierConcurrentMonotone hammers the board with one
// publisher and N pollers (run it under -race): the publisher raises
// random rows monotonically, as the streaming merge does, and every
// poller checks that its copy only ever tightened — per row, the
// (CompareConf, support) order is non-decreasing across its own polls —
// and that a poll copies only when the version moved.
func TestFloorsFrontierConcurrentMonotone(t *testing.T) {
	const (
		rows    = 16
		pollers = 8
		iters   = 300
	)
	f := NewFloors(rows)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		conf := make([]float64, rows)
		sup := make([]int, rows)
		for i := 0; i < iters; i++ {
			for r := range conf {
				if rng.Intn(4) == 0 {
					if rng.Intn(2) == 0 {
						conf[r] = math.Min(1, conf[r]+float64(1+rng.Intn(5))/100)
					} else {
						sup[r]++
					}
				}
			}
			f.PublishFrontier(conf, sup)
			f.RaiseMinsup(i / 10)
		}
	}()
	for w := 0; w < pollers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conf := make([]float64, rows)
			sup := make([]int, rows)
			prevConf := make([]float64, rows)
			prevSup := make([]int, rows)
			var seen uint64
			prevMinsup := 0
			for i := 0; i < iters; i++ {
				version, minsup := f.Frontier(seen, conf, sup)
				if version < seen || minsup < prevMinsup {
					t.Errorf("board went backwards: version %d -> %d, minsup %d -> %d", seen, version, prevMinsup, minsup)
					return
				}
				for r := range conf {
					cmp := rules.CompareConf(conf[r], prevConf[r])
					if cmp < 0 || (cmp == 0 && sup[r] < prevSup[r]) {
						t.Errorf("row %d weakened: (%v,%d) -> (%v,%d)",
							r, prevConf[r], prevSup[r], conf[r], sup[r])
						return
					}
					if version == seen && (cmp != 0 || sup[r] != prevSup[r]) {
						t.Errorf("row %d copied at unchanged version %d", r, version)
						return
					}
				}
				copy(prevConf, conf)
				copy(prevSup, sup)
				seen, prevMinsup = version, minsup
				if mc := f.MinConf(); mc < 0 || mc > 1 {
					t.Errorf("MinConf out of range: %v", mc)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// cancelMidVisitor drives the cancellation-mid-steal test: forks share
// one atomic node counter and cancel the run's context at a fixed
// count, while a per-node delay keeps workers busy long enough that
// offloaded tasks are sitting in deques when the cancel lands. Those
// queued tasks must drain (each fails the budget check at node entry)
// or the scheduler's merge walker would wait on their runs forever.
type cancelMidVisitor struct {
	cancel context.CancelFunc
	after  int64
	calls  *atomic.Int64
	delay  time.Duration
}

func (v *cancelMidVisitor) UpdateThresholds(xPos, candPos []int) Threshold {
	if v.calls.Add(1) == v.after {
		v.cancel()
	}
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	return Threshold{}
}
func (v *cancelMidVisitor) PruneBeforeScan(_ Threshold, xp, xn, rp, rn int) bool { return false }
func (v *cancelMidVisitor) PruneAfterScan(_ Threshold, xp, xn, mp, rn int) bool  { return false }
func (v *cancelMidVisitor) OnGroup([]int, *bitset.Set, int, int, []int)          {}
func (v *cancelMidVisitor) Fork() Visitor {
	return &cancelMidVisitor{cancel: v.cancel, after: v.after, calls: v.calls, delay: v.delay}
}
func (v *cancelMidVisitor) Merge(batch any) {}

func TestParallelCancelMidStealAbortsPromptly(t *testing.T) {
	// Sequential baseline: how big the full tree is.
	seqV := &minsupVisitor{minsup: 2}
	seqEng, items := synthEnumerator(seqV, 60, 30, 30, 0)
	seqStats := mustRun(t, seqEng, items)
	if seqStats.Nodes < 500 {
		t.Fatalf("synthetic tree too small for a mid-run cancel: %d nodes", seqStats.Nodes)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	v := &cancelMidVisitor{cancel: cancel, after: 40, calls: &calls, delay: 50 * time.Microsecond}
	eng, items2 := synthEnumerator(v, 60, 30, 30, 4)
	stats, err := eng.Run(ctx, items2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Aborted {
		t.Fatal("cancellation must not masquerade as a budget abort")
	}
	// Promptness: after the cancel, every task — running or still queued
	// in a victim's deque — fails the budget check at its next node
	// entry, so the node count stays far below the full tree.
	if stats.Nodes >= seqStats.Nodes/2 {
		t.Fatalf("cancel was not prompt: visited %d of %d nodes", stats.Nodes, seqStats.Nodes)
	}
	// No goroutine leaks: Run's WaitGroup drains the workers before
	// returning; give the runtime a bounded moment to retire them.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after cancelled parallel run: %d > %d", g, before)
	}
}

// TestParallelReuseAcrossRuns exercises the scheduler's pooled state:
// repeated Runs on one Enumerator (the serving layer's steady state)
// must produce identical output every time, including right after a
// budget-aborted Run on the same scheduler.
func TestParallelReuseAcrossRuns(t *testing.T) {
	seq := &parCollector{}
	engSeq, items := enumeratorFor(t, seq, false)
	mustRun(t, engSeq, items)

	par := &parCollector{}
	engPar, items2 := enumeratorFor(t, par, false)
	engPar.Workers = 4
	for run := 0; run < 3; run++ {
		par.groups = par.groups[:0]
		stats := mustRun(t, engPar, items2)
		if len(par.groups) != len(seq.groups) {
			t.Fatalf("run %d: %d groups, want %d", run, len(par.groups), len(seq.groups))
		}
		if stats.Nodes != engSeq.stats.Nodes {
			t.Fatalf("run %d: nodes %d, want %d", run, stats.Nodes, engSeq.stats.Nodes)
		}
		if run == 1 {
			// Interleave a budget-aborted Run; the next full Run must be
			// unaffected by the aborted tasks' recycled state.
			engPar.MaxNodes = 3
			par.groups = par.groups[:0]
			if stats := mustRun(t, engPar, items2); !stats.Aborted {
				t.Fatal("tiny budget should abort")
			}
			engPar.MaxNodes = 0
		}
	}
}

func TestOptionsValidateWorkers(t *testing.T) {
	if err := (Options{Workers: -1}).Validate(); !errors.Is(err, ErrBadWorkers) {
		t.Fatalf("Workers=-1: err = %v, want ErrBadWorkers", err)
	}
	if err := (Options{Workers: -1}).Validate(); err != nil && err.Error() == ErrBadWorkers.Error() {
		t.Fatal("Validate must wrap ErrBadWorkers with the offending value, not return it bare")
	}
	for _, ok := range []int{0, 1, 8} {
		if err := (Options{Workers: ok}).Validate(); err != nil {
			t.Fatalf("Workers=%d: unexpected err %v", ok, err)
		}
	}
}
