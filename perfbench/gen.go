package main

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// task is one operation the generator sends. due is when it is
// scheduled; run receives the time it actually started.
type task struct {
	due time.Time
	run func(ctx context.Context, start time.Time)
}

type taskHeap []task

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// stream is an open-loop arrival schedule: count operations at a fixed
// rate from start, made on demand so the generator holds no backlog of
// pre-built requests.
type stream struct {
	start time.Time
	rate  float64
	count int
	make  func(i int, due time.Time) task
	next  int
	// giveUp, when positive, abandons the rest of the stream once an
	// operation would start more than giveUp late: a ladder step that
	// far behind has failed, and finishing it would only lengthen the run.
	giveUp    time.Duration
	abandoned bool
}

func (s *stream) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// generator is the single load-generating process's scheduler: a fixed
// set of nproc workers runs every operation of a phase — the open-loop
// classify stream and the workload's own scheduled or closed-loop
// operations — in due order, so no more than nproc requests are ever
// in flight. It records how late operations started and how many were
// overdue (the backlog), which tells generator stalls apart from
// server latency.
type generator struct {
	mu       sync.Mutex
	heap     taskHeap
	streams  []*stream
	inflight int
	wake     chan struct{}

	// late is the generator's own delay per stream operation: how long
	// after it was due, or after a worker came free if that was later,
	// the operation started. Waiting for one of the nproc connections is
	// not counted here; it is part of the operation's latency, and it
	// shows in backlogMax, the most overdue operations seen at a start.
	late       []time.Duration
	backlogMax int
}

func newGenerator() *generator {
	return &generator{wake: make(chan struct{}, 1)}
}

// push schedules a task; safe to call from running tasks.
func (g *generator) push(t task) {
	g.mu.Lock()
	heap.Push(&g.heap, t)
	g.mu.Unlock()
	g.signal()
}

func (g *generator) addStream(s *stream) {
	g.mu.Lock()
	g.streams = append(g.streams, s)
	g.mu.Unlock()
	g.signal()
}

func (g *generator) signal() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// run executes tasks on `workers` goroutines until no task is left to
// run or ctx ends, and returns once every worker has exited.
func (g *generator) run(ctx context.Context, workers int) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, start, ok := g.next(ctx, time.Now())
				if !ok {
					return
				}
				t.run(ctx, start)
				g.mu.Lock()
				g.inflight--
				g.mu.Unlock()
				g.signal() // a waiting worker may now have a task, or nothing left to wait for
			}
		}()
	}
	wg.Wait()
}

// next blocks until the earliest task is due and claims it. free is
// when the calling worker came free.
func (g *generator) next(ctx context.Context, free time.Time) (task, time.Time, bool) {
	g.mu.Lock()
	for {
		if ctx.Err() != nil {
			g.mu.Unlock()
			return task{}, time.Time{}, false
		}
		var (
			due    time.Time
			fromSt *stream
			found  bool
		)
		for _, s := range g.streams {
			if s.next < s.count && (!found || s.due(s.next).Before(due)) {
				due, fromSt, found = s.due(s.next), s, true
			}
		}
		if len(g.heap) > 0 && (!found || g.heap[0].due.Before(due)) {
			due, fromSt, found = g.heap[0].due, nil, true
		}
		if !found {
			if g.inflight == 0 {
				g.mu.Unlock()
				g.signal() // wake the other workers so they exit too
				return task{}, time.Time{}, false
			}
			g.mu.Unlock()
			select {
			case <-g.wake:
			case <-ctx.Done():
			}
			g.mu.Lock()
			continue
		}
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			g.mu.Unlock()
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-g.wake:
			case <-ctx.Done():
			}
			timer.Stop()
			g.mu.Lock()
			continue
		}
		if fromSt != nil && fromSt.giveUp > 0 && now.Sub(due) > fromSt.giveUp {
			fromSt.next, fromSt.abandoned = fromSt.count, true
			continue
		}
		var t task
		if fromSt != nil {
			t = fromSt.make(fromSt.next, due)
			fromSt.next++
			ready := due
			if free.After(ready) {
				ready = free
			}
			g.late = append(g.late, now.Sub(ready))
			backlog := 0
			for _, s := range g.streams {
				for i := s.next; i < s.count && !s.due(i).After(now); i++ {
					backlog++
				}
			}
			for _, h := range g.heap {
				if !h.due.After(now) {
					backlog++
				}
			}
			if backlog > g.backlogMax {
				g.backlogMax = backlog
			}
		} else {
			t = heap.Pop(&g.heap).(task)
		}
		g.inflight++
		g.mu.Unlock()
		return t, now, true
	}
}
