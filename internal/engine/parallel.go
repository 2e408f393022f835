package engine

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
)

// ParallelVisitor is the contract for the parallel mode: a visitor that
// can split into independent per-worker forks whose buffered events are
// folded back deterministically while mining is still in flight.
// Visitors that do not implement it run sequentially regardless of
// Workers.
type ParallelVisitor interface {
	Visitor

	// Fork returns a visitor owning its own scratch state for one
	// worker. Fork is called on the dispatching goroutine before any
	// worker starts; the returned visitor must not share mutable state
	// with the parent visitor or other forks (shared read-only data and
	// explicitly synchronized structures like Floors are fine). A fork
	// lives for the whole run and sees the events of every task its
	// worker executes, so threshold knowledge accumulates across
	// subtrees instead of resetting per task.
	Fork() Visitor

	// Merge consumes one event batch previously sealed by a fork's
	// Flush. Merge is called on the dispatching goroutine only, in
	// exact sequential enumeration order: the scheduler splices each
	// batch at the position the events would have occupied in a
	// sequential DFS, so replaying batches through Merge reproduces
	// sequential output while workers keep mining.
	Merge(batch any)
}

// Flusher seals a fork's buffered events into an opaque batch that the
// parent's Merge can consume. The scheduler calls Flush on the fork's
// own worker goroutine at every task hand-off boundary (before an
// offload, and when a task completes), so a batch never straddles a
// splice point. Forks that buffer nothing (pure aggregators) may omit
// Flusher or return nil.
type Flusher interface {
	Flush() any
}

// Diverger is an optional fork extension for visitors that can prune
// harder while their private state still matches a prefix of the
// sequential enumeration. A worker's first task is such a prefix
// region: the fork starts from dispatch-time state (a sequential
// prefix by construction) and inline DFS applies events in sequential
// order, while offloaded subtrees only *remove* events from its view —
// so everything the fork knows precedes the current node sequentially.
// That stops being true the moment the worker picks up a second task
// (own deque or stolen): earlier tasks may lie sequentially after it.
// The scheduler calls Diverge on the fork's own worker goroutine
// before its second task starts, exactly once per run.
type Diverger interface {
	Diverge()
}

// Baseliner is an optional fork extension that hands pruning state
// from a task's spawner to its executor. TaskBaseline is called on the
// spawning worker's goroutine at offload time — the moment the child's
// run is spliced at the spawner's current sequential position — so
// whatever state it captures is anchored at or before every node of
// the offloaded subtree. AdoptBaseline is called on the executing
// worker's goroutine before each task starts (with nil for the root
// task, which has no spawner) and must REPLACE any baseline adopted
// for a previous task: task splice positions do not grow with
// execution order, so state justified at one task's position may lie
// sequentially after the next task's. The returned value crosses
// goroutines through the deque and must not alias the spawner's
// mutable state.
type Baseliner interface {
	TaskBaseline() any
	AdoptBaseline(any)
}

// WorkerJoiner is an optional extension for commutative per-worker
// aggregates (counters, min/max): after all workers quiesce and every
// batch has been merged, JoinWorkers receives the forks in worker
// order. Order-sensitive state must flow through Flush/Merge instead.
type WorkerJoiner interface {
	JoinWorkers(forks []Visitor)
}

// Work-stealing granularity: a subtree is offloaded to the deque only
// while at least one worker is idle and the task still has enough
// candidate rows to plausibly amortize the hand-off copy. Smaller
// tasks run inline on their owner.
const minSplitCand = 4

// maxBacklog caps a worker's own deque during adaptive generation:
// once this many offloaded tasks sit unstolen, the owner goes back to
// inline recursion until thieves drain the surplus. Without the cap an
// oversubscribed machine (more workers than free CPUs) reports idle
// thieves that never get scheduled to steal, and the running worker
// would shred its whole subtree into tasks nobody consumes.
const maxBacklog = 8

// ptask is a deque entry: one enumeration task whose payload buffers
// (x, items, cand — all arena-aliased at spawn time) have been
// deep-copied into memory owned by the ptask, so the task survives
// sitting in a deque and can be stolen by any worker. ptasks are
// pooled per worker; a worker allocates from its own freelist and the
// executing worker recycles, so freelists stay single-goroutine.
type ptask struct {
	t     task
	run   *taskRun
	base  any // spawner's pruning baseline (Baseliner), nil for the root
	x     *bitset.Set
	items []int
	cand  []int
}

// runSeg is one ordered segment of a task's event stream: either a
// sealed batch of visitor events, or a reference to the run of a child
// task offloaded at this position. The segment sequence of a run,
// expanded depth-first, is exactly the sequential enumeration order of
// the subtree — the splice position is the event stream's sequential
// index.
type runSeg struct {
	batch any
	child *taskRun
}

// taskRun is the reorder window entry for one offloaded subtree:
// workers append segments as the subtree is mined, the merge walker
// consumes them in order, and closed marks quiescence. Runs are pooled
// on the scheduler.
type taskRun struct {
	segs   []runSeg
	closed bool
}

// scheduler owns the parallel run: per-worker deques, the idle gate
// for adaptive task generation, parking for thieves that found
// nothing, and the streaming merge state. It is retained on the
// Enumerator across Runs so deques, freelists and per-worker scratch
// arenas are reused.
type scheduler struct {
	eng *Enumerator
	all []*pworker // every worker ever built (arenas retained)
	ws  []*pworker // workers active this run: all[:Workers]
	wg  sync.WaitGroup

	// idle is the number of workers currently hunting for work. Owners
	// consult it on the spawn hot path (one atomic load) and offload
	// only while it is positive, which is what stops task generation
	// once every worker is busy.
	idle atomic.Int32

	// mu guards the parking state: version is bumped at every push so
	// a thief that scanned all deques and found nothing can re-check
	// before sleeping (missed-wakeup safe), unfinished counts created
	// but not yet completed tasks and reaching zero releases everyone.
	mu         sync.Mutex
	cond       *sync.Cond
	version    uint64
	unfinished int

	// mergeMu guards every taskRun plus the run pool; mergeCond wakes
	// the merge walker when a segment is appended or a run closes.
	mergeMu   sync.Mutex
	mergeCond *sync.Cond
	runFree   []*taskRun

	errMu     sync.Mutex
	budgetErr error
	ctxErr    error
}

// pworker is one mining worker: a private sub-enumerator over a cloned
// scratch arena, a long-lived visitor fork, a mutex-guarded deque
// (owner pops newest from the back, thieves take the oldest half from
// the front), and pools for ptasks and steal batches.
type pworker struct {
	id    int
	sched *scheduler
	sub   *Enumerator
	fork  Visitor
	fl    Flusher
	div   Diverger
	bl    Baseliner
	run   *taskRun // run of the task currently executing
	// ntasks counts tasks started this run; the transition to the
	// second one is the fork's Diverge point (see Diverger).
	ntasks int

	mu    sync.Mutex
	deque []*ptask
	// qlen mirrors len(deque) for the lock-free backlog check on the
	// spawn hot path.
	qlen atomic.Int32

	free     []*ptask // ptask pool, owner-goroutine only
	stealBuf []*ptask // scratch for stealHalf, owner-goroutine only
}

// runParallel mines the tree with work-stealing workers and merges
// their event batches into pv in sequential order while mining is in
// flight. The root task is handed to worker 0; everything else is
// adaptive: a worker offloads a child subtree only while some worker
// is idle, otherwise it recurses inline exactly like the sequential
// engine. Determinism does not depend on scheduling — only splice
// positions do, and those are fixed by the enumeration order.
func (e *Enumerator) runParallel(pv ParallelVisitor, root task) error {
	workers := e.Workers
	e.stats.Workers = workers
	if e.sched == nil {
		e.sched = newScheduler()
	}
	s := e.sched
	s.reset(e, workers)
	for _, w := range s.ws {
		w.fork = pv.Fork()
		w.fl, _ = w.fork.(Flusher)
		w.div, _ = w.fork.(Diverger)
		w.bl, _ = w.fork.(Baseliner)
		w.sub.Visitor = w.fork
	}

	w0 := s.ws[0]
	rootRun := s.newRun()
	w0.pushBottom(w0.newTask(root, rootRun))

	s.wg.Add(len(s.ws))
	for _, w := range s.ws {
		go w.loop()
	}
	// The dispatcher goroutine is the merge consumer: it walks the run
	// tree in sequential order, blocking only at the frontier of
	// not-yet-mined segments. By the time the walk returns, every task
	// has completed and closed its run.
	s.consume(rootRun, pv)
	s.wg.Wait()

	for _, w := range s.ws {
		e.stats.merge(w.sub.stats)
	}
	s.errMu.Lock()
	budgetErr, ctxErr := s.budgetErr, s.ctxErr
	s.errMu.Unlock()
	if ctxErr != nil {
		// Cancellation: the caller gets ctx.Err() and discards results.
		return ctxErr
	}
	if wj, ok := pv.(WorkerJoiner); ok {
		forks := make([]Visitor, len(s.ws))
		for i, w := range s.ws {
			forks[i] = w.fork
		}
		wj.JoinWorkers(forks)
	}
	// On a budget abort the merged prefix still holds valid groups; the
	// caller sees the same partial-result semantics as sequential.
	return budgetErr
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	s.mergeCond = sync.NewCond(&s.mergeMu)
	return s
}

// reset prepares the scheduler for one Run: grows the worker set to
// the requested size (reusing arenas from earlier Runs), re-points
// every active worker at this Run's budget and progress sampler, and
// re-arms the termination counter for the root task.
func (s *scheduler) reset(e *Enumerator, workers int) {
	s.eng = e
	s.budgetErr, s.ctxErr = nil, nil
	s.version = 0
	s.unfinished = 1 // the root task
	for len(s.all) < workers {
		w := &pworker{id: len(s.all), sched: s}
		w.sub = &Enumerator{
			NumRows:  e.NumRows,
			NumPos:   e.NumPos,
			ItemRows: e.ItemRows,
			scratch:  e.scratch.clone(),
			rowItems: e.rowItems,
		}
		w.sub.sp = w
		s.all = append(s.all, w)
	}
	s.ws = s.all[:workers]
	for _, w := range s.ws {
		w.sub.DisableBackward = e.DisableBackward
		w.sub.budget = e.budget
		w.sub.prog = e.prog // shared: ticks and emissions are synchronized
		w.sub.stats = Stats{}
		w.run = nil
		w.ntasks = 0
	}
}

// newRun takes a pooled run or builds one. Recycled runs come back
// from the merge walker with segs already cleared.
func (s *scheduler) newRun() *taskRun {
	s.mergeMu.Lock()
	var r *taskRun
	if n := len(s.runFree); n > 0 {
		r, s.runFree = s.runFree[n-1], s.runFree[:n-1]
	}
	s.mergeMu.Unlock()
	if r == nil {
		r = &taskRun{}
	}
	r.closed = false
	return r
}

// newTask deep-copies a spawned task out of the arena into a pooled
// ptask. This is the ownership hand-off the deque model requires: the
// copy happens once, at offload time, and from then on any worker may
// execute the task without touching the spawner's scratch.
func (w *pworker) newTask(t task, run *taskRun) *ptask {
	var pt *ptask
	if n := len(w.free); n > 0 {
		pt, w.free = w.free[n-1], w.free[:n-1]
	} else {
		pt = &ptask{x: bitset.New(w.sched.eng.NumRows)}
	}
	pt.fill(t, run)
	return pt
}

// fill copies a spawned task's arena-aliased payload (x, items, cand)
// into this ptask's own buffers.
func (pt *ptask) fill(t task, run *taskRun) {
	pt.run = run
	pt.x.CopyFrom(t.x)
	pt.items = append(pt.items[:0], t.items...)
	pt.cand = append(pt.cand[:0], t.cand...)
	pt.t = task{x: pt.x, items: pt.items, cand: pt.cand, minNext: t.minNext, depth: t.depth}
}

// recycle returns a finished ptask to the executing worker's pool.
func (w *pworker) recycle(pt *ptask) {
	pt.run = nil
	pt.base = nil
	w.free = append(w.free, pt)
}

// pushBottom appends to the owner's end of the deque.
func (w *pworker) pushBottom(pt *ptask) {
	w.mu.Lock()
	w.deque = append(w.deque, pt)
	w.qlen.Store(int32(len(w.deque)))
	w.mu.Unlock()
}

// popBottom takes the newest task (LIFO for locality); nil when empty.
func (w *pworker) popBottom() *ptask {
	w.mu.Lock()
	n := len(w.deque)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	pt := w.deque[n-1]
	w.deque[n-1] = nil
	w.deque = w.deque[:n-1]
	w.qlen.Store(int32(n - 1))
	w.mu.Unlock()
	return pt
}

// stealHalf removes the oldest half of v's deque (rounded up) into
// out. Oldest tasks sit closest to the root and carry the biggest
// subtrees, which is what makes steal-half effective on skewed trees.
func (v *pworker) stealHalf(out []*ptask) []*ptask {
	v.mu.Lock()
	n := len(v.deque)
	if n == 0 {
		v.mu.Unlock()
		return out
	}
	take := (n + 1) / 2
	out = append(out, v.deque[:take]...)
	rest := copy(v.deque, v.deque[take:])
	for i := rest; i < n; i++ {
		v.deque[i] = nil
	}
	v.deque = v.deque[:rest]
	v.qlen.Store(int32(rest))
	v.mu.Unlock()
	return out
}

// addTask registers a newly offloaded task and wakes parked thieves.
func (s *scheduler) addTask() {
	s.mu.Lock()
	s.unfinished++
	s.version++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// finishTask retires one task; the last one releases every sleeper.
func (s *scheduler) finishTask() {
	s.mu.Lock()
	s.unfinished--
	done := s.unfinished == 0
	if done {
		s.version++
	}
	s.mu.Unlock()
	if done {
		s.cond.Broadcast()
	}
}

// signalWork wakes thieves after tasks became visible in some deque
// without the unfinished count changing (e.g. a thief re-queued the
// surplus of a stolen batch).
func (s *scheduler) signalWork() {
	s.mu.Lock()
	s.version++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// loop is the worker body: drain own deque, then steal; park when the
// whole system is out of visible work, exit when all tasks finished.
func (w *pworker) loop() {
	s := w.sched
	defer s.wg.Done()
	for {
		pt := w.popBottom()
		if pt == nil {
			pt = s.stealWork(w)
			if pt == nil {
				return
			}
		}
		w.runTask(pt)
	}
}

// stealWork hunts the other deques for tasks. The worker counts as
// idle for the whole hunt — that is the signal owners consult before
// offloading more subtrees. The version counter closes the
// scan-then-sleep race: a push between the snapshot and the Wait bumps
// the version, so the thief rescans instead of sleeping through it.
func (s *scheduler) stealWork(w *pworker) *ptask {
	s.idle.Add(1)
	defer s.idle.Add(-1)
	for {
		s.mu.Lock()
		v := s.version
		s.mu.Unlock()
		for off := 1; off < len(s.ws); off++ {
			victim := s.ws[(w.id+off)%len(s.ws)]
			batch := victim.stealHalf(w.stealBuf[:0])
			w.stealBuf = batch[:0]
			if len(batch) == 0 {
				continue
			}
			pt := batch[0]
			if len(batch) > 1 {
				w.mu.Lock()
				w.deque = append(w.deque, batch[1:]...)
				w.qlen.Store(int32(len(w.deque)))
				w.mu.Unlock()
				s.signalWork()
			}
			return pt
		}
		s.mu.Lock()
		for s.version == v && s.unfinished > 0 {
			s.cond.Wait()
		}
		done := s.unfinished == 0
		s.mu.Unlock()
		if done {
			return nil
		}
	}
}

// runTask executes one task subtree on this worker's sub-enumerator.
// Errors (budget, cancellation) are recorded and the run is still
// flushed and closed, so the merge walker always terminates: after a
// cancellation, tasks left in deques drain through here cheaply — the
// budget check at node entry fails before any mining work happens.
func (w *pworker) runTask(pt *ptask) {
	w.ntasks++
	if w.ntasks == 2 && w.div != nil {
		w.div.Diverge()
	}
	if w.bl != nil {
		w.bl.AdoptBaseline(pt.base)
	}
	w.run = pt.run
	if err := w.sub.visitNode(pt.t); err != nil {
		w.sched.recordErr(err)
	}
	w.flushEvents()
	w.closeRun(pt.run)
	w.run = nil
	w.recycle(pt)
	w.sched.finishTask()
}

// spawn implements the spawner seam for parallel workers: offload the
// child subtree to the deque while somebody is idle, the subtree is
// worth shipping and the owner's own backlog is not already saturated;
// otherwise recurse inline like the sequential engine.
func (w *pworker) spawn(t task) error {
	if !t.first && len(t.cand) >= minSplitCand && w.qlen.Load() < maxBacklog && w.sched.idle.Load() > 0 {
		w.offload(t)
		return nil
	}
	return w.sub.visitNode(t)
}

// offload seals the fork's buffered events (they precede the child in
// sequential order), splices the child's run at the current position
// of the owner's run, and publishes the task.
func (w *pworker) offload(t task) {
	s := w.sched
	pt := w.newTask(t, s.newRun())
	if w.bl != nil {
		pt.base = w.bl.TaskBaseline()
	}
	b := w.flushBatch()
	s.mergeMu.Lock()
	if b != nil {
		w.run.segs = append(w.run.segs, runSeg{batch: b})
	}
	w.run.segs = append(w.run.segs, runSeg{child: pt.run})
	s.mergeMu.Unlock()
	s.mergeCond.Broadcast()
	w.pushBottom(pt)
	s.addTask()
}

// flushBatch seals the fork's pending events; nil when it buffers
// nothing.
func (w *pworker) flushBatch() any {
	if w.fl == nil {
		return nil
	}
	return w.fl.Flush()
}

// flushEvents appends the fork's pending events to the current run.
func (w *pworker) flushEvents() {
	b := w.flushBatch()
	if b == nil {
		return
	}
	s := w.sched
	s.mergeMu.Lock()
	w.run.segs = append(w.run.segs, runSeg{batch: b})
	s.mergeMu.Unlock()
	s.mergeCond.Broadcast()
}

// closeRun marks a run quiescent: no segment will be appended after
// this, so the merge walker may pass its end.
func (w *pworker) closeRun(r *taskRun) {
	s := w.sched
	s.mergeMu.Lock()
	r.closed = true
	s.mergeMu.Unlock()
	s.mergeCond.Broadcast()
}

// consume walks a run's segments in order on the dispatcher goroutine:
// batches are handed to pv.Merge, child references are walked
// recursively before the walk moves past their splice position. The
// walk blocks only at the frontier — a segment not yet produced — so
// merging proceeds while workers are still mining. Fully consumed runs
// go back to the pool.
func (s *scheduler) consume(r *taskRun, pv ParallelVisitor) {
	for i := 0; ; i++ {
		s.mergeMu.Lock()
		for i >= len(r.segs) && !r.closed {
			s.mergeCond.Wait()
		}
		if i >= len(r.segs) {
			r.segs = r.segs[:0]
			s.runFree = append(s.runFree, r)
			s.mergeMu.Unlock()
			return
		}
		seg := r.segs[i]
		r.segs[i] = runSeg{}
		s.mergeMu.Unlock()
		if seg.child != nil {
			s.consume(seg.child, pv)
		} else {
			pv.Merge(seg.batch)
		}
	}
}

// recordErr keeps the first budget error and the first hard
// (cancellation) error; cancellation wins when both occur.
func (s *scheduler) recordErr(err error) {
	s.errMu.Lock()
	if errors.Is(err, ErrNodeBudget) {
		if s.budgetErr == nil {
			s.budgetErr = err
		}
	} else if s.ctxErr == nil {
		s.ctxErr = err
	}
	s.errMu.Unlock()
}

// Floors is the cross-worker board of the streaming merge's frontier
// for parallel top-k mining: one (confidence, support) threshold per
// positive row, taken from the parent visitor's lists after the last
// merged batch, plus the dynamic-minsup raise derived from the same
// state. The merge replays events in exact sequential order, so both
// are sequential-prefix facts at a position before every in-flight
// task: workers may prune threshold ties against them, precisely what
// the sequential run does against its own lists. Nothing a worker
// learns on its own reaches the board — state from a sequentially
// later region must never suppress (DESIGN.md §5b).
//
// A version counter, bumped by every PublishFrontier, lets workers
// poll the board every few nodes and copy the frontier only when it
// moved.
type Floors struct {
	mu      sync.Mutex
	conf    []float64
	sup     []int
	version uint64
	minsup  int
}

// NewFloors returns a zeroed board over numPos positive rows.
func NewFloors(numPos int) *Floors {
	return &Floors{conf: make([]float64, numPos), sup: make([]int, numPos)}
}

// MinConf returns the weakest frontier confidence (0 while any row's
// list is not yet full, or when there are no rows). It is the parallel
// run's observable dynamic-minconf value for progress reporting: exact
// sequential-prefix state, so it never runs ahead of the threshold the
// sequential run would report at the same point.
func (f *Floors) MinConf() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return minConfOf(f.conf)
}

// PublishFrontier records the merge frontier's per-row thresholds and
// bumps the board's version. Only the streaming merge (which replays
// events in exact sequential order) may call it: the values must be
// the sequential run's thresholds at a position at or before every
// in-flight node, and they must be monotone across calls (top-k
// thresholds only tighten). The board overwrites rather than
// max-merges — the caller's state is the ground truth. Both slices
// must have the board's length.
func (f *Floors) PublishFrontier(conf []float64, sup []int) {
	f.mu.Lock()
	copy(f.conf, conf)
	copy(f.sup, sup)
	f.version++
	f.mu.Unlock()
}

// Frontier is a worker's poll of the board, under one lock: when the
// board's version differs from seen (the version the caller last
// copied), the frontier thresholds are copied into conf and sup (same
// length as the board); otherwise nothing is copied. It returns the
// board's version and its current support floor (see RaiseMinsup).
//
//vet:allocfree
func (f *Floors) Frontier(seen uint64, conf []float64, sup []int) (version uint64, minsup int) {
	f.mu.Lock()
	if f.version != seen {
		copy(conf, f.conf)
		copy(sup, f.sup)
	}
	version, minsup = f.version, f.minsup
	f.mu.Unlock()
	return version, minsup
}

// RaiseMinsup publishes an absolute-support floor: no group with
// support below v can enter any final list. The board keeps the
// maximum ever published. The streaming merge publishes the sequential
// dynamic-minsup raise here — the merge frontier is a strict prefix of
// the sequential run and the raise is monotone in enumeration order,
// so every in-flight node (always at a position at or past the
// frontier) would face at least this floor sequentially too.
func (f *Floors) RaiseMinsup(v int) {
	f.mu.Lock()
	if v > f.minsup {
		f.minsup = v
	}
	f.mu.Unlock()
}
