// Parallel MineTopkRGS: the topkVisitor forks one workerVisitor per
// work-stealing worker. Workers mine whatever subtrees the scheduler
// hands them with private cloned top-k lists (scratch state, later
// discarded) and record the group events that survive their pruning.
// At every task hand-off boundary the engine seals those events into a
// batch (Flush) and streams it back to the parent (Merge) at the
// batch's sequential enumeration position, which makes parallel output
// identical to sequential output:
//
//   - a worker only suppresses (prunes or drops) work that the
//     sequential run provably suppresses or rejects at the same
//     position. All three suppression channels are anchored at known
//     sequential positions at or before the current node: the merge
//     frontier (the parent's lists, an exact sequential prefix before
//     every in-flight task), the task baseline (the spawning worker's
//     sound state captured at the task's splice position, see
//     engine.Baseliner), and — while the worker is still sequentially
//     exact, per the engine.Diverger contract — its own local lists.
//     Speculative knowledge (another worker's lists, or this worker's
//     own lists after divergence — state that may reflect sequentially
//     LATER regions) must never suppress: a group strictly below every
//     FINAL threshold can still be admitted sequentially and displaced
//     later, and while it sits in a list it blocks tie admissions, so
//     dropping it would change which of two tie-valued groups survives;
//   - every surviving event is replayed through the unmodified
//     sequential list update at its sequential position, so extra
//     events a sequential run would have rejected are rejected the
//     same way, in the same order.
//
// Because the merge runs while mining is in flight, the parent's lists
// tighten during the run; Merge publishes their thresholds to the
// floors board as the merge frontier, which is what closes the
// floor-propagation lag behind the old full-replay barrier.
package core

import (
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/rules"
)

// Fork returns the private visitor for one worker: cloned per-row
// lists and threshold vectors seeded with everything known at dispatch
// time, and the parent's current effective minsup. The fork lives for
// the whole run and accumulates threshold knowledge across every task
// its worker executes.
func (v *topkVisitor) Fork() engine.Visitor {
	n := len(v.lists)
	w := &workerVisitor{
		parent:      v,
		cfg:         v.cfg,
		effMinsup:   v.effMinsup,
		boardMinsup: v.effMinsup,
		floors:      v.floors,
		lists:       make([]*rules.TopKList, n),
		own:         newThresholds(n),
		front:       newThresholds(n),
		base:        newThresholds(n),
		sound:       newThresholds(n),
		exact:       true,
	}
	for p, l := range v.lists {
		w.lists[p] = l.Clone()
	}
	copy(w.own.conf, v.th.conf)
	copy(w.own.sup, v.th.sup)
	w.resoundAll()
	return w
}

// Merge replays one sealed event batch through the sequential Step 13
// logic. The engine calls it on the dispatching goroutine in exact
// sequential order, so v.lists evolve exactly as a sequential run's
// would; afterwards the freshly tightened thresholds are published to
// the floors board so in-flight workers prune with them.
func (v *topkVisitor) Merge(batch any) {
	for _, ev := range batch.([]groupEvent) {
		items := ev.items
		conf := float64(ev.xp) / float64(ev.xp+ev.xn)
		v.apply(func() []int { return items }, ev.rows, conf, ev.xp, ev.xPos)
	}
	v.publishFloors()
}

// publishFloors pushes the parent's thresholds to the cross-worker
// board as the merge frontier. The parent's lists hold the exact
// sequential state up to the merge frontier — a position before every
// in-flight task — so workers may prune threshold TIES against them,
// exactly as the sequential run prunes ties against its own current
// lists. Tie-pruning is what keeps parallel node counts close to
// sequential on tie-dense datasets. The board also serves the parallel
// progress floor, so that too is exact sequential-prefix state.
func (v *topkVisitor) publishFloors() {
	if v.floors == nil {
		return
	}
	if v.moved {
		v.floors.PublishFrontier(v.th.conf, v.th.sup)
		v.moved = false
	}
	// The sequential dynamic-minsup raise (with its +1: strictly better
	// supports only) is also a frontier fact, so it rides the same board.
	// The frontier precedes every in-flight task in sequential order, and
	// from the moment the raise condition holds, the sequential run
	// rejects every group at or below the k-th support — so cutting their
	// subtrees loses nothing the replay needs.
	if v.cfg.DynamicMinsup {
		v.maybeRaiseMinsup()
		if v.effMinsup > v.cfg.Minsup {
			v.floors.RaiseMinsup(v.effMinsup)
		}
	}
}

// groupEvent is one OnGroup invocation a worker kept: enough to replay
// Step 13 exactly. The antecedent is pre-expanded (the members map is
// read-only during mining, so workers may share it).
type groupEvent struct {
	items  []int
	rows   *bitset.Set
	xp, xn int
	xPos   []int
}

// syncInterval is how many nodes a worker mines between polls of the
// shared floors board. Small enough that the streaming parent's
// frontier sharpens in-flight workers within a subtree, large enough
// that the mutex stays off the hot path.
const syncInterval = 4

// taskBaseline is the engine.Baseliner payload: the spawning worker's
// sound per-row thresholds and support cut, captured at the offloaded
// task's splice position. Everything in it is justified at that
// position, which sequentially precedes every node of the task.
type taskBaseline struct {
	th     thresholds
	minsup int
}

// workerVisitor mines subtrees on one worker goroutine. It owns every
// mutable structure it touches; the only shared state is the read-only
// parent (cfg, members) and the mutex-guarded floors board.
type workerVisitor struct {
	parent *topkVisitor
	cfg    Config

	// lists are clones of the parent's per-row lists, evolved privately
	// with the events of this worker's first task, and own mirrors their
	// thresholds. While the worker is exact they are a sequential-prefix
	// state and prune; from Diverge on nothing reads them, so they stop
	// being maintained. They are discarded when the run ends.
	lists []*rules.TopKList
	own   thresholds
	// effMinsup is the operative support cut: the tightest of the
	// board's frontier-rooted raise (boardMinsup), the current task's
	// baseline cut, and — while exact — the worker's own sequential
	// raise. The self-raise and the baseline are justified only at this
	// task's positions, so AdoptBaseline resets effMinsup for each
	// task; carrying either into a task that splices earlier could cut
	// groups the sequential run admits (and later displaces), changing
	// which of two tie-valued groups survives.
	effMinsup   int
	boardMinsup int

	// floors is the shared board; front is this worker's copy of its
	// merge frontier as of board version frontVersion. base holds the
	// current task's baseline. Both are sound suppression channels
	// (anchored before this task).
	floors       *engine.Floors
	frontVersion uint64
	front        thresholds
	base         thresholds
	// sound is the per-row maximum of front, base and — while exact —
	// own: the tightest threshold this worker may suppress against.
	// Each channel is anchored at a sequential position at or before
	// the current node, so the maximum is never ahead of the sequential
	// run's own threshold here. It is recomputed only where a channel
	// changes: a frontier poll that saw a new version, AdoptBaseline,
	// Diverge, and a local Consider while exact (that row alone). Step 8
	// reads it, and the minimum it returns rides in the engine's
	// per-node Threshold snapshot, so deferred sibling prunes see the
	// thresholds of the node that deferred them, exactly like the
	// sequential engine.
	sound thresholds

	// exact is true while everything in this worker's lists precedes
	// the current node in sequential order — the whole first task, per
	// the engine.Diverger contract. While exact, the local lists ARE a
	// sequential-prefix state, so the worker prunes ties against them
	// and raises minsup with the sequential +1, exactly like the
	// sequential engine. A run that never splits (e.g. no worker ever
	// goes idle) therefore explores exactly the sequential node set.
	exact bool

	updateCalls int
	events      []groupEvent
}

// resound recomputes row p of the sound vectors from the channels.
//
//vet:allocfree
func (w *workerVisitor) resound(p int) {
	c, s := w.front.conf[p], w.front.sup[p]
	if bc, bs := w.base.conf[p], w.base.sup[p]; bc > c || (bc == c && bs > s) {
		c, s = bc, bs
	}
	if w.exact {
		if lc, ls := w.own.conf[p], w.own.sup[p]; lc > c || (lc == c && ls > s) {
			c, s = lc, ls
		}
	}
	w.sound.conf[p], w.sound.sup[p] = c, s
}

// resoundAll recomputes every row of the sound vectors.
//
//vet:allocfree
func (w *workerVisitor) resoundAll() {
	for p := range w.sound.conf {
		w.resound(p)
	}
}

// Diverge implements engine.Diverger: from the second task on, the
// worker's lists may contain events from sequentially-later regions,
// so sequential-exact tie pruning must stop — and since the next task
// may splice earlier than the nodes that justified a self-raise, the
// support cut falls back to the frontier-rooted board value, which
// precedes every task the worker can still receive.
func (w *workerVisitor) Diverge() {
	w.exact = false
	w.effMinsup = w.boardMinsup
	w.resoundAll()
}

// TaskBaseline implements engine.Baseliner: called at offload time on
// this worker's goroutine, it captures the tightest thresholds the
// worker may currently suppress with. They are all justified at the
// worker's current position — exactly the offloaded task's splice
// position — so the executor may suppress against them anywhere in the
// task. This is what hands accumulated pruning power across a steal:
// without it a thief starts every subtree from the merge frontier
// alone, and on tie-dense trees over-explores by large factors.
func (w *workerVisitor) TaskBaseline() any {
	b := &taskBaseline{th: newThresholds(len(w.sound.conf)), minsup: w.effMinsup}
	copy(b.th.conf, w.sound.conf)
	copy(b.th.sup, w.sound.sup)
	return b
}

// AdoptBaseline implements engine.Baseliner: installs the spawner's
// baseline for the task about to start, REPLACING the previous task's
// (splice positions do not grow with execution order, so the old
// baseline may be unsound here). A nil baseline (the root task) resets
// to the board state.
func (w *workerVisitor) AdoptBaseline(v any) {
	if b, ok := v.(*taskBaseline); ok {
		copy(w.base.conf, b.th.conf)
		copy(w.base.sup, b.th.sup)
		w.effMinsup = b.minsup
	} else {
		clear(w.base.conf)
		clear(w.base.sup)
		w.effMinsup = w.boardMinsup
	}
	if w.boardMinsup > w.effMinsup {
		w.effMinsup = w.boardMinsup
	}
	w.resoundAll()
}

// Flush seals the buffered events into a batch for the parent's Merge.
// The engine calls it on this worker's goroutine at task hand-off
// boundaries, so a batch never straddles an offloaded child's splice
// position. Ownership of the slice transfers to the merge side.
func (w *workerVisitor) Flush() any {
	if len(w.events) == 0 {
		return nil
	}
	evs := w.events
	w.events = nil
	return evs
}

// pollFloors refreshes the frontier copy when the board's version
// moved, and adopts the board's frontier-rooted minsup raise.
//
//vet:allocfree
func (w *workerVisitor) pollFloors() {
	version, minsup := w.floors.Frontier(w.frontVersion, w.front.conf, w.front.sup)
	if version != w.frontVersion {
		w.frontVersion = version
		w.resoundAll()
	}
	if minsup > w.boardMinsup {
		w.boardMinsup = minsup
	}
	if w.boardMinsup > w.effMinsup {
		w.effMinsup = w.boardMinsup
	}
}

// UpdateThresholds mirrors the sequential Step 8 scan over the
// worker's sound vectors. The returned minimum rides in the engine's
// per-node snapshot, so sibling prunes deferred past a recursion stay
// anchored at this node's position — the same snapshot discipline the
// sequential engine applies, and the reason the soundness argument
// survives the worker's exact flag flipping between the scan and a
// deferred prune.
//
//vet:allocfree
func (w *workerVisitor) UpdateThresholds(xPos, candPos []int) engine.Threshold {
	w.updateCalls++
	// The fork-time snapshot goes stale as the merge frontier advances:
	// poll on the first node, then every syncInterval nodes.
	if w.updateCalls == 1 || w.updateCalls%syncInterval == 0 {
		w.pollFloors()
		if w.cfg.DynamicMinsup {
			w.maybeRaiseMinsup()
		}
	}
	if !w.cfg.TopKPruning {
		return engine.Threshold{}
	}
	// Same static-floor clamp as the sequential Step 8: the floor holds
	// at every sequential position, so it is sound in every channel.
	return w.sound.step8(xPos, candPos, w.cfg.MinConf)
}

// maybeRaiseMinsup is the worker form of the dynamic support raise. It
// only fires while the worker is sequentially exact: then the local
// lists are a sequential-prefix state, the raise (with the sequential
// +1) is exactly what the sequential run would do at this node, and
// every group it cuts is one the sequential run rejects from here on.
// After divergence the lists may reflect out-of-order regions and the
// worker relies on the board's and the baseline's raises instead.
func (w *workerVisitor) maybeRaiseMinsup() {
	if !w.exact {
		return
	}
	if m, ok := w.own.raisedMinsup(); ok && m > w.effMinsup {
		w.effMinsup = m
	}
}

// PruneBeforeScan is Step 9 with the sequential tie-cutting bound: the
// snapshot's thresholds are never ahead of the sequential run at this
// node, so whatever this cuts — ties included — the sequential run
// cuts too.
func (w *workerVisitor) PruneBeforeScan(th engine.Threshold, xp, xn, rp, rn int) bool {
	ubSup := xp + rp
	if ubSup < w.effMinsup {
		return true
	}
	if !w.cfg.TopKPruning {
		return false
	}
	ubConf := float64(ubSup) / float64(ubSup+xn)
	return !qualifies(th, ubConf, ubSup)
}

// PruneAfterScan is Step 11 with the same bound as PruneBeforeScan.
func (w *workerVisitor) PruneAfterScan(th engine.Threshold, xp, xn, mp, rn int) bool {
	ubSup := xp + mp
	if ubSup < w.effMinsup {
		return true
	}
	if !w.cfg.TopKPruning {
		return false
	}
	ubConf := float64(ubSup) / float64(ubSup+xn)
	return !qualifies(th, ubConf, ubSup)
}

// OnGroup records the event for replay unless the replay provably
// rejects it, and mirrors the sequential list update on the local
// clones so the worker's own thresholds keep tightening while exact.
func (w *workerVisitor) OnGroup(items []int, rows *bitset.Set, xp, xn int, xPos []int) {
	if xp < w.cfg.Minsup {
		return
	}
	conf := float64(xp) / float64(xp+xn)
	// Identical static-floor skip as the sequential OnGroup, so the local
	// lists stay an exact mirror of a floored sequential run while exact.
	if w.cfg.MinConf > 0 && rules.CompareConf(conf, w.cfg.MinConf) < 0 {
		return
	}
	// Strict filter against the sound per-row thresholds: replay-time
	// thresholds are at least these, and apply only admits groups that
	// strictly beat some covered row's threshold — an event that cannot
	// do so now never will. No speculative source may join the filter: a
	// group strictly below a FINAL threshold can still be admitted at
	// replay time and block a tie while it lasts.
	keep := false
	for _, p := range xPos {
		c, s := w.sound.conf[p], w.sound.sup[p]
		if cmp := rules.CompareConf(conf, c); cmp > 0 || (cmp == 0 && xp > s) {
			keep = true
			break
		}
	}
	if !keep {
		return
	}
	// Everything the engine passed aliases its arena; the recorded event
	// must own its data (expansion copies items, rows and xPos are copied
	// here), so the batch never needs the worker — or the arena — alive.
	ev := groupEvent{
		items: w.parent.expand(items),
		rows:  rows.Clone(),
		xp:    xp,
		xn:    xn,
		xPos:  append([]int(nil), xPos...),
	}
	w.events = append(w.events, ev)
	if !w.exact {
		return
	}

	var g *rules.Group
	for _, p := range xPos {
		l := w.lists[p]
		if !admits(l, conf, xp, rows) {
			continue
		}
		if g == nil {
			g = &rules.Group{Antecedent: ev.items, Class: w.parent.cls, Support: xp, Confidence: conf, Rows: ev.rows}
		}
		l.Consider(g)
		if w.own.set(p, l) {
			w.resound(p)
		}
	}
}
