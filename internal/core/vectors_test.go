package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rules"
)

// vectorLog collects mismatches found by the checking visitors, which
// run on the mining goroutines.
type vectorLog struct {
	mu         sync.Mutex
	seqChecks  int
	workChecks int
	bad        []string
}

func (l *vectorLog) record(worker bool, problems []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if worker {
		l.workChecks++
	} else {
		l.seqChecks++
	}
	if len(l.bad) < 5 {
		l.bad = append(l.bad, problems...)
	}
}

// checkingVisitor wraps the sequential visitor (and, through Fork, each
// worker) so that every Step 8 call is checked before and after it
// runs: the maintained vectors must equal a from-scratch recomputation
// over the lists and channels, and the returned threshold must equal
// the per-node scan those recomputed values give.
type checkingVisitor struct {
	*topkVisitor
	log *vectorLog
}

func (c checkingVisitor) UpdateThresholds(xPos, candPos []int) engine.Threshold {
	c.log.record(false, c.topkVisitor.vectorProblems("before"))
	th := c.topkVisitor.UpdateThresholds(xPos, candPos)
	problems := c.topkVisitor.vectorProblems("after")
	if c.cfg.TopKPruning {
		want := scratchStep8(xPos, candPos, c.cfg.MinConf, func(p int) (float64, int) { return c.lists[p].Threshold() })
		problems = append(problems, thresholdProblem("sequential step 8", th, want)...)
	}
	c.log.record(false, problems)
	return th
}

func (c checkingVisitor) Fork() engine.Visitor {
	return checkingWorker{c.topkVisitor.Fork().(*workerVisitor), c.log}
}

type checkingWorker struct {
	*workerVisitor
	log *vectorLog
}

func (c checkingWorker) UpdateThresholds(xPos, candPos []int) engine.Threshold {
	c.log.record(true, c.workerVisitor.vectorProblems("before"))
	th := c.workerVisitor.UpdateThresholds(xPos, candPos)
	problems := c.workerVisitor.vectorProblems("after")
	if c.cfg.TopKPruning {
		want := scratchStep8(xPos, candPos, c.cfg.MinConf, c.workerVisitor.scratchSound)
		problems = append(problems, thresholdProblem("worker step 8", th, want)...)
	}
	c.log.record(true, problems)
	return th
}

// vectorProblems compares th with every list's own threshold.
func (v *topkVisitor) vectorProblems(when string) []string {
	var out []string
	for p, l := range v.lists {
		if c, s := l.Threshold(); rules.CompareConf(c, v.th.conf[p]) != 0 || s != v.th.sup[p] {
			out = append(out, fmt.Sprintf("%s: sequential row %d: vector (%v,%d), list (%v,%d)",
				when, p, v.th.conf[p], v.th.sup[p], c, s))
		}
	}
	return out
}

// scratchSound is the per-row maximum of the three suppression
// channels, read from their sources: the frontier copy, the task
// baseline and, while exact, the local list itself.
func (w *workerVisitor) scratchSound(p int) (float64, int) {
	c, s := w.front.conf[p], w.front.sup[p]
	if bc, bs := w.base.conf[p], w.base.sup[p]; bc > c || (bc == c && bs > s) {
		c, s = bc, bs
	}
	if w.exact {
		if lc, ls := w.lists[p].Threshold(); lc > c || (lc == c && ls > s) {
			c, s = lc, ls
		}
	}
	return c, s
}

// vectorProblems compares the sound vectors with scratchSound and,
// while exact, the own vectors with the local lists.
func (w *workerVisitor) vectorProblems(when string) []string {
	var out []string
	for p := range w.lists {
		if c, s := w.scratchSound(p); rules.CompareConf(c, w.sound.conf[p]) != 0 || s != w.sound.sup[p] {
			out = append(out, fmt.Sprintf("%s: worker row %d (exact=%v): sound (%v,%d), channels (%v,%d)",
				when, p, w.exact, w.sound.conf[p], w.sound.sup[p], c, s))
		}
		if !w.exact {
			continue
		}
		if c, s := w.lists[p].Threshold(); rules.CompareConf(c, w.own.conf[p]) != 0 || s != w.own.sup[p] {
			out = append(out, fmt.Sprintf("%s: worker row %d: own (%v,%d), list (%v,%d)",
				when, p, w.own.conf[p], w.own.sup[p], c, s))
		}
	}
	return out
}

// scratchStep8 is the Step 8 scan over per-row thresholds read through
// at, with the static-floor clamp.
func scratchStep8(xPos, candPos []int, minConf float64, at func(p int) (float64, int)) engine.Threshold {
	minC, minS := math.Inf(1), math.MaxInt
	for _, rs := range [][]int{xPos, candPos} {
		for _, p := range rs {
			if c, s := at(p); c < minC || (c == minC && s < minS) {
				minC, minS = c, s
			}
		}
	}
	if math.IsInf(minC, 1) {
		minC, minS = 0, 0
	}
	if minConf > 0 && rules.CompareConf(minConf, minC) > 0 {
		minC, minS = minConf, 0
	}
	return engine.Threshold{Conf: minC, Sup: minS}
}

func thresholdProblem(what string, got, want engine.Threshold) []string {
	if rules.CompareConf(got.Conf, want.Conf) != 0 || got.Sup != want.Sup {
		return []string{fmt.Sprintf("%s: returned (%v,%d), from scratch (%v,%d)", what, got.Conf, got.Sup, want.Conf, want.Sup)}
	}
	return nil
}

// TestThresholdVectorsOracle checks the maintained threshold vectors
// against a from-scratch recomputation at every Step 8 call, on random
// datasets, sequentially and at 2, 4 and 8 workers; parallel output
// must also deep-equal sequential output.
func TestThresholdVectorsOracle(t *testing.T) {
	log := &vectorLog{}
	testHookVisitor = func(v *topkVisitor) engine.Visitor { return checkingVisitor{v, log} }
	defer func() { testHookVisitor = nil }()

	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var d *dataset.Dataset
		if r.Intn(2) == 0 {
			d = randomDataset(r)
		} else {
			d = wideDataset(r, 14+r.Intn(12), 18+r.Intn(14))
		}
		cfg := DefaultConfig(1+r.Intn(3), 1+r.Intn(3))
		cfg.SeedInit = r.Intn(4) != 0
		cfg.DynamicMinsup = r.Intn(4) != 0
		seq, err := Mine(d, 0, cfg)
		if err != nil {
			t.Error(err)
			return false
		}
		for _, workers := range []int{2, 4, 8} {
			cfg.Workers = workers
			par, err := Mine(d, 0, cfg)
			if err != nil {
				t.Error(err)
				return false
			}
			sameResults(t, fmt.Sprintf("seed=%d workers=%d", seed, workers), seq, par)
		}
		log.mu.Lock()
		defer log.mu.Unlock()
		for _, b := range log.bad {
			t.Errorf("seed %d: %s", seed, b)
		}
		return len(log.bad) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if log.seqChecks == 0 || log.workChecks == 0 {
		t.Fatalf("vacuous run: %d sequential and %d worker checks", log.seqChecks, log.workChecks)
	}
	t.Logf("%d sequential and %d worker Step 8 calls checked", log.seqChecks, log.workChecks)
}
