// Package core implements MineTopkRGS (Figure 3), the paper's primary
// contribution: discovery of the top-k covering rule groups for every
// row of a discretized gene expression dataset, with a user-specified
// minimum support but no minimum confidence — the confidence threshold
// is derived dynamically from the per-row top-k lists and drives the
// top-k pruning of Section 4.1.1.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rules"
)

// Config controls MineTopkRGS. The zero value is invalid; start from
// DefaultConfig.
type Config struct {
	// K is the number of covering rule groups kept per row.
	K int
	// Minsup is the absolute minimum support (count of consequent-class
	// rows containing the antecedent).
	Minsup int

	// SeedInit enables the single-item initialization optimization of
	// Section 4.1.1: per-row lists start from single-item rule groups
	// instead of dummy (0, 0) entries, raising pruning thresholds early.
	SeedInit bool
	// TopKPruning enables the dynamic minimum-confidence pruning. Turning
	// it off (ablation) leaves only support-based pruning.
	TopKPruning bool
	// BackwardPruning enables the closedness check of Section 4.1.2.
	// Turning it off (ablation) re-discovers groups redundantly.
	BackwardPruning bool
	// SortRowsByItemCount enables the ORD refinement that orders rows of
	// the same class by ascending frequent-item count.
	SortRowsByItemCount bool
	// DynamicMinsup enables raising the support threshold once every
	// row's k groups all reach 100% confidence.
	DynamicMinsup bool
	// MaxNodes, when positive, aborts the enumeration after that many
	// nodes; Result.Stats.Aborted reports the cutoff and the per-row
	// lists hold the best groups seen so far (possibly incomplete).
	MaxNodes int
	// MinConf, when positive, is a static minimum-confidence floor: rule
	// groups with confidence strictly below it are discarded, and the
	// dynamic top-k threshold never drops below (MinConf, 0). Callers
	// must guarantee that no group of the final top-k lists can fall
	// strictly below the floor (e.g. a cluster coordinator whose merged
	// lists are already full at or above it) — otherwise lists come back
	// short. Groups tied with the floor are kept.
	MinConf float64
	// Workers > 1 mines first-level subtrees on that many goroutines;
	// output is deterministically identical to sequential mining. 0 or 1
	// runs sequentially.
	Workers int
	// Progress, when non-nil, receives engine.ProgressSnapshots every
	// ProgressEvery nodes (0 = engine.DefaultProgressEvery). The
	// snapshot's MinconfFloor is the weakest per-row top-k confidence
	// threshold — the dynamic minconf the search currently prunes with.
	Progress      engine.ProgressFunc
	ProgressEvery int
}

// DefaultConfig returns the paper's configuration with all
// optimizations enabled.
func DefaultConfig(minsup, k int) Config {
	return Config{
		K:                   k,
		Minsup:              minsup,
		SeedInit:            true,
		TopKPruning:         true,
		BackwardPruning:     true,
		SortRowsByItemCount: true,
		DynamicMinsup:       true,
	}
}

// Result is the output of Mine.
type Result struct {
	// PerRow maps each consequent-class row (original row id) to its
	// top-k covering rule groups, most significant first. Rows with no
	// qualifying group map to an empty slice.
	PerRow map[int][]*rules.Group
	// Groups is the deduplicated union of all per-row groups, sorted by
	// significance. Group antecedents use dataset item ids; Rows bitsets
	// use original row ids.
	Groups []*rules.Group
	// Stats reports the enumeration work (node counts, prunes).
	Stats engine.Stats
	// NumFrequentItems is the item count after Step 1's frequency filter.
	NumFrequentItems int
}

// Mine discovers the top-k covering rule groups for every row of class
// cls in d (Algorithm MineTopkRGS). It is MineContext without
// cancellation.
func Mine(d *dataset.Dataset, cls dataset.Label, cfg Config) (*Result, error) {
	return MineContext(context.Background(), d, cls, cfg) //vet:ignore ctxflow Mine is the documented context-free convenience wrapper over MineContext
}

// MineContext is Mine with cancellation: ctx cancellation or deadline
// expiry stops the enumeration at the next node and returns ctx.Err()
// with a nil Result. A Config.MaxNodes abort is not an error — the
// partial Result is returned with Stats.Aborted set.
func MineContext(ctx context.Context, d *dataset.Dataset, cls dataset.Label, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", cfg.K)
	}
	if cfg.Minsup < 1 {
		return nil, fmt.Errorf("core: minsup must be >= 1, got %d", cfg.Minsup)
	}
	if int(cls) < 0 || int(cls) >= d.NumClasses() {
		return nil, fmt.Errorf("core: class %d outside [0,%d)", cls, d.NumClasses())
	}

	// Step 1: frequent items — positive-class support >= minsup.
	posAll := d.RowSet(cls)
	numPos := posAll.Count()
	if numPos == 0 {
		return nil, fmt.Errorf("core: no rows of class %s", d.ClassNames[cls])
	}
	var freqItems []int
	for i := 0; i < d.NumItems(); i++ {
		if d.ItemRows(i).IntersectionCount(posAll) >= cfg.Minsup {
			freqItems = append(freqItems, i)
		}
	}

	res := &Result{PerRow: make(map[int][]*rules.Group)}
	for r := 0; r < d.NumRows(); r++ {
		if d.Labels[r] == cls {
			res.PerRow[r] = nil
		}
	}
	res.NumFrequentItems = len(freqItems)
	if len(freqItems) == 0 {
		return res, nil
	}

	// Steps 2-3: class dominant order (positives first); within a class,
	// ascending frequent-item count (Section 4.1.2).
	order := rowOrder(d, cls, freqItems, cfg.SortRowsByItemCount)
	// itemRows over reordered row ids.
	itemRows := make([]*bitset.Set, d.NumItems())
	newID := make([]int, d.NumRows()) // original -> reordered
	for newR, origR := range order {
		newID[origR] = newR
	}
	for _, it := range freqItems {
		s := bitset.New(d.NumRows())
		d.ItemRows(it).ForEach(func(origR int) bool {
			s.Add(newID[origR])
			return true
		})
		itemRows[it] = s
	}

	// Step 4: per-positive-row top-k lists (reordered ids 0..numPos-1).
	v := &topkVisitor{
		cfg:       cfg,
		cls:       cls,
		numPos:    numPos,
		effMinsup: cfg.Minsup,
		lists:     make([]*rules.TopKList, numPos),
		th:        newThresholds(numPos),
	}
	for p := 0; p < numPos; p++ {
		v.lists[p] = rules.NewTopKList(cfg.K)
	}
	if cfg.SeedInit {
		v.seed(itemRows, freqItems, numPos)
	}

	// Deduplicate items sharing a support set: they are interchangeable
	// during enumeration (identical projections and closures); one
	// representative runs in the engine and OnGroup expands antecedents
	// back to the full item lists.
	reps, members := dedupItems(itemRows, freqItems)
	v.members = members

	// Steps 5-14: depth-first enumeration, parallel across first-level
	// subtrees when cfg.Workers > 1.
	if cfg.Workers > 1 {
		v.floors = engine.NewFloors(numPos)
	}
	var vis engine.Visitor = v
	if testHookVisitor != nil {
		vis = testHookVisitor(v)
	}
	eng := &engine.Enumerator{
		NumRows:         d.NumRows(),
		NumPos:          numPos,
		ItemRows:        itemRows,
		Visitor:         vis,
		DisableBackward: !cfg.BackwardPruning,
		MaxNodes:        cfg.MaxNodes,
		Workers:         cfg.Workers,
		Progress:        cfg.Progress,
		ProgressEvery:   cfg.ProgressEvery,
	}
	stats, err := eng.Run(ctx, reps)
	if err != nil {
		return nil, err
	}
	res.Stats = stats

	// Post-pass: replace remaining single-item seeds with the upper
	// bound of their rule group (I(R(item)) over frequent items).
	v.resolveSeeds(itemRows, freqItems)

	// Map results back to original row ids.
	seen := make(map[*rules.Group]bool)
	for p := 0; p < numPos; p++ {
		origRow := order[p]
		gs := v.lists[p].Groups()
		out := make([]*rules.Group, len(gs))
		for i, g := range gs {
			if !seen[g] {
				seen[g] = true
				g.Rows = remapRows(g.Rows, order)
				res.Groups = append(res.Groups, g)
			}
			out[i] = g
		}
		res.PerRow[origRow] = out
	}
	rules.SortGroups(res.Groups)
	return res, nil
}

// dedupItems groups frequent items by identical support sets, returning
// one representative per group and a members map (representative ->
// full sorted member list). Support sets are bucketed by their 64-bit
// hash with an Equal check resolving collisions — Set.Key's string
// materialization dominated heap profiles on wide datasets.
func dedupItems(itemRows []*bitset.Set, freqItems []int) ([]int, map[int][]int) {
	byHash := map[uint64][]int{} // rowset hash -> representative items
	members := map[int][]int{}
	var reps []int
	for _, it := range freqItems {
		h := itemRows[it].Hash64()
		rep := -1
		for _, cand := range byHash[h] {
			if itemRows[cand].Equal(itemRows[it]) {
				rep = cand
				break
			}
		}
		if rep < 0 {
			byHash[h] = append(byHash[h], it)
			reps = append(reps, it)
			rep = it
		}
		members[rep] = append(members[rep], it)
	}
	return reps, members
}

// rowOrder returns the ORD permutation: reordered index -> original row.
func rowOrder(d *dataset.Dataset, cls dataset.Label, freqItems []int, sortByCount bool) []int {
	isFreq := make([]bool, d.NumItems())
	for _, it := range freqItems {
		isFreq[it] = true
	}
	count := make([]int, d.NumRows())
	for r, row := range d.Rows {
		for _, it := range row {
			if isFreq[it] {
				count[r]++
			}
		}
	}
	var pos, neg []int
	for r := 0; r < d.NumRows(); r++ {
		if d.Labels[r] == cls {
			pos = append(pos, r)
		} else {
			neg = append(neg, r)
		}
	}
	if sortByCount {
		byCount := func(rows []int) {
			sort.SliceStable(rows, func(i, j int) bool { return count[rows[i]] < count[rows[j]] })
		}
		byCount(pos)
		byCount(neg)
	}
	return append(pos, neg...)
}

// remapRows converts a reordered-id row set to original ids.
func remapRows(s *bitset.Set, order []int) *bitset.Set {
	if s == nil {
		return nil
	}
	out := bitset.New(s.Len())
	s.ForEach(func(newR int) bool {
		out.Add(order[newR])
		return true
	})
	return out
}

// testHookVisitor, when non-nil, wraps the visitor MineContext hands
// to the engine. Tests use it to observe every hook call; it is nil in
// normal operation.
var testHookVisitor func(*topkVisitor) engine.Visitor

// topkVisitor implements the Steps 8/9/11/13 logic of Figure 3. Its
// Step 8 reads the per-row thresholds from th, a flat mirror of the
// lists kept current at every Consider, rather than asking each list
// at each node.
type topkVisitor struct {
	cfg    Config
	cls    dataset.Label
	numPos int

	lists     []*rules.TopKList // per reordered positive row
	effMinsup int               // dynamically raised when DynamicMinsup

	// th holds every list's threshold, refreshed after each Consider
	// (seed and apply, so also Merge). Step 8, the progress floor, the
	// minsup raise and the frontier publication read these flat vectors
	// instead of asking every list at every node. moved records that
	// some threshold changed since the last publishFloors.
	th    thresholds
	moved bool

	// floors is the cross-worker frontier board, non-nil only for
	// parallel runs (Config.Workers > 1; see publishFloors).
	floors *engine.Floors

	// provisional single-item seeds: group -> item id, resolved after
	// mining into their true upper bounds.
	provisional map[*rules.Group]int

	// members expands a representative item to all items sharing its
	// support set (OnGroup antecedent expansion).
	members map[int][]int

	updateCalls int
}

// seed installs single-item rule groups into the per-row lists,
// deduplicated by support set so no two seeds of one row belong to the
// same rule group.
func (v *topkVisitor) seed(itemRows []*bitset.Set, freqItems []int, numPos int) {
	v.provisional = make(map[*rules.Group]int)
	byRowset := make(map[uint64][]*rules.Group)
	for _, it := range freqItems {
		rs := itemRows[it]
		h := rs.Hash64()
		dup := false
		for _, g0 := range byRowset[h] {
			if g0.Rows.Equal(rs) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		xp := rs.CountBelow(numPos)
		xn := rs.Count() - xp
		g := &rules.Group{
			Antecedent: []int{it},
			Class:      v.cls,
			Support:    xp,
			Confidence: float64(xp) / float64(xp+xn),
			Rows:       rs.Clone(),
		}
		byRowset[h] = append(byRowset[h], g)
		v.provisional[g] = it
		rs.ForEach(func(p int) bool {
			if p >= numPos {
				return false
			}
			if v.lists[p].Consider(g) && v.th.set(p, v.lists[p]) {
				v.moved = true
			}
			return true
		})
	}
}

// resolveSeeds rewrites every provisional seed's antecedent to its rule
// group's upper bound: the set of frequent items whose support contains
// the seed's support set.
func (v *topkVisitor) resolveSeeds(itemRows []*bitset.Set, freqItems []int) {
	for g := range v.provisional {
		var upper []int
		for _, it := range freqItems {
			if itemRows[it].ContainsAll(g.Rows) {
				upper = append(upper, it)
			}
		}
		g.Antecedent = upper
	}
}

// UpdateThresholds is Step 8: the weakest (conf, sup) threshold across
// the rows reachable from the current node.
//
//vet:allocfree
func (v *topkVisitor) UpdateThresholds(xPos, candPos []int) engine.Threshold {
	v.updateCalls++
	if v.cfg.DynamicMinsup && v.updateCalls%64 == 0 {
		v.maybeRaiseMinsup()
	}
	if !v.cfg.TopKPruning {
		return engine.Threshold{}
	}
	return v.th.step8(xPos, candPos, v.cfg.MinConf)
}

// ProgressFloor implements engine.FloorReporter: the weakest per-row
// top-k confidence threshold, i.e. the dynamic minconf floor pruning is
// currently measured against. Parallel runs read the merge frontier on
// the Floors board (mutex-guarded); sequential runs scan the threshold
// vector on the mining goroutine itself, so neither path races with
// list updates.
func (v *topkVisitor) ProgressFloor() float64 {
	if v.floors != nil {
		return v.floors.MinConf()
	}
	minC := math.Inf(1)
	for _, c := range v.th.conf {
		if c < minC {
			minC = c
		}
	}
	if math.IsInf(minC, 1) {
		return 0
	}
	return minC
}

// maybeRaiseMinsup implements the second Section 4.1.1 optimization:
// once every row's k-th group reaches 100% confidence, only groups with
// support above the smallest k-th support can still qualify anywhere.
func (v *topkVisitor) maybeRaiseMinsup() {
	if m, ok := v.th.raisedMinsup(); ok && m > v.effMinsup {
		v.effMinsup = m
	}
}

// qualifies reports whether a subtree whose best possible group has the
// given (confidence, support) upper bounds could still beat th.
func qualifies(th engine.Threshold, ubConf float64, ubSup int) bool {
	if c := rules.CompareConf(ubConf, th.Conf); c != 0 {
		return c > 0
	}
	return ubSup > th.Sup
}

// PruneBeforeScan is Step 9 (loose bounds).
func (v *topkVisitor) PruneBeforeScan(th engine.Threshold, xp, xn, rp, rn int) bool {
	ubSup := xp + rp
	if ubSup < v.effMinsup {
		return true
	}
	if !v.cfg.TopKPruning {
		return false
	}
	ubConf := float64(ubSup) / float64(ubSup+xn)
	return !qualifies(th, ubConf, ubSup)
}

// PruneAfterScan is Step 11 (tight bounds).
func (v *topkVisitor) PruneAfterScan(th engine.Threshold, xp, xn, mp, rn int) bool {
	ubSup := xp + mp
	if ubSup < v.effMinsup {
		return true
	}
	if !v.cfg.TopKPruning {
		return false
	}
	ubConf := float64(ubSup) / float64(ubSup+xn)
	return !qualifies(th, ubConf, ubSup)
}

// expand rewrites a representative item list into the full antecedent.
func (v *topkVisitor) expand(reps []int) []int {
	var out []int
	for _, r := range reps {
		out = append(out, v.members[r]...)
	}
	sort.Ints(out)
	return out
}

// OnGroup is Step 13: update the top-k lists of the covered rows.
func (v *topkVisitor) OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int) {

	if xp < v.cfg.Minsup {
		return
	}
	conf := float64(xp) / float64(xp+xn)
	if v.cfg.MinConf > 0 && rules.CompareConf(conf, v.cfg.MinConf) < 0 {
		return
	}
	v.apply(func() []int { return v.expand(items) }, rows, conf, xp, xPos)
}

// apply is the Step 13 list maintenance shared by live OnGroup events
// and the deterministic replay of worker-recorded events during Join:
// offer the group to every covered row's list, building it lazily on
// first acceptance. antecedent is called at most once.
func (v *topkVisitor) apply(antecedent func() []int, rows *bitset.Set, conf float64, xp int, xPos []int) {
	var g *rules.Group // built on first acceptance
	for _, p := range xPos {
		l := v.lists[p]
		if !admits(l, conf, xp, rows) {
			continue
		}
		if g == nil {
			// rows aliases the engine's arena (or a replayed event's
			// buffer); the retained group needs its own copy.
			g = &rules.Group{
				Antecedent: antecedent(),
				Class:      v.cls,
				Support:    xp,
				Confidence: conf,
				Rows:       rows.Clone(),
			}
		}
		l.Consider(g)
		if v.th.set(p, l) {
			v.moved = true
		}
	}
}

// admits reports whether list l takes a group (conf, xp) with support
// set rows: it must qualify, and must not already be present as a seed
// of the same support set (resolveSeeds rewrites a seed's antecedent
// later, so the mined copy would be a duplicate).
func admits(l *rules.TopKList, conf float64, xp int, rows *bitset.Set) bool {
	if !l.Qualifies(conf, xp) {
		return false
	}
	for _, g0 := range l.Groups() {
		if rules.CompareConf(g0.Confidence, conf) == 0 && g0.Support == xp && g0.Rows != nil && g0.Rows.Equal(rows) {
			return false
		}
	}
	return true
}

// thresholds is a flat table of per-row top-k thresholds over the
// reordered positive rows: conf[p], sup[p] is what a new group must
// beat to enter row p's list (0, 0 while the list is not full).
type thresholds struct {
	conf []float64
	sup  []int
}

func newThresholds(n int) thresholds {
	return thresholds{conf: make([]float64, n), sup: make([]int, n)}
}

// set copies l's current threshold into row p and reports whether it
// changed.
//
//vet:allocfree
func (t thresholds) set(p int, l *rules.TopKList) bool {
	c, s := l.Threshold()
	changed := rules.CompareConf(c, t.conf[p]) != 0 || s != t.sup[p]
	t.conf[p], t.sup[p] = c, s
	return changed
}

// step8 is the Step 8 scan: the weakest threshold over the rows
// reachable from a node (xPos and candPos), clamped from below by the
// static MinConf floor. Sup 0 in the clamp keeps subtrees tied with the
// floor alive: any real group has support >= 1, so qualifies() still
// admits conf == MinConf.
//
//vet:allocfree
func (t thresholds) step8(xPos, candPos []int, minConf float64) engine.Threshold {
	minC, minS := t.weakest(xPos, math.Inf(1), math.MaxInt)
	minC, minS = t.weakest(candPos, minC, minS)
	if math.IsInf(minC, 1) {
		minC, minS = 0, 0 // no reachable positive rows: node is sterile anyway
	}
	if minConf > 0 && rules.CompareConf(minConf, minC) > 0 {
		minC, minS = minConf, 0
	}
	return engine.Threshold{Conf: minC, Sup: minS}
}

// weakest folds rows rs into the running minimum (minC, minS).
//
//vet:allocfree
func (t thresholds) weakest(rs []int, minC float64, minS int) (float64, int) {
	for _, p := range rs {
		if c, s := t.conf[p], t.sup[p]; c < minC || (c == minC && s < minS) {
			minC, minS = c, s
		}
	}
	return minC, minS
}

// raisedMinsup is the dynamic support raise of Section 4.1.1: once
// every row's threshold reaches 100% confidence (a list that is not
// full has threshold 0), only groups with support above the smallest
// k-th support can still enter any list. ok is false while the raise
// does not apply.
//
//vet:allocfree
func (t thresholds) raisedMinsup() (minsup int, ok bool) {
	minKthSup := math.MaxInt
	for p, c := range t.conf {
		if c < 1.0 {
			return 0, false
		}
		if s := t.sup[p]; s < minKthSup {
			minKthSup = s
		}
	}
	return minKthSup + 1, true
}
