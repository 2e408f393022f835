package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/cba"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/datastore"
	"repro/internal/discretize"
	"repro/internal/jobs"
	"repro/internal/lowerbound"
	"repro/internal/rcbt"
	"repro/internal/rules"
	"repro/internal/serve"
)

// span is one timed interval the benchmark recorded around its own call
// into a layer. Spans of one operation share op; parent is the id of
// the enclosing span (-1 for an operation's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// layer is the span name's module: "discretize.fit" -> "discretize".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps a traced run's spans and per-layer samples in memory
// until the run ends. Every method is a no-op on a nil tracer, which is
// what an untraced run carries.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	ops     int
	samples map[string][]float64
	counts  map[string]float64

	// operations awaiting their job records (see jobs)
	refreshes []refreshEvent
	trains    map[string]trainEvent
}

type refreshEvent struct {
	dataset               string
	version               int
	sent, applied, served time.Time
}

type trainEvent struct{ sent, served time.Time }

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}, trains: map[string]trainEvent{}}
}

func (t *tracer) op() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0))})
	return id
}

func (t *tracer) sample(metric string, v float64) {
	t.mu.Lock()
	t.samples[metric] = append(t.samples[metric], v)
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span id and duration.
func (t *tracer) timed(name string, parent, op int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(name, parent, op, start, end), end.Sub(start)
}

// classify records one classify request: its lateness in the generator
// and its HTTP round trip through the serving layer.
func (t *tracer) classify(rec *classifyRec) {
	if t == nil {
		return
	}
	op := t.op()
	root := t.add("op.classify", -1, op, rec.due, rec.end)
	t.add("loadgen.late", root, op, rec.due, rec.start)
	t.add("serve.request", root, op, rec.start, rec.end)
}

// setupSpans records one set-up's phases.
func (t *tracer) setupSpans(start, started, created, succeeded, served time.Time) {
	if t == nil {
		return
	}
	op := t.op()
	root := t.add("op.setup", -1, op, start, served)
	t.add("synth.generate_and_start", root, op, start, started)
	t.add("datastore.create", root, op, started, created)
	t.add("jobs.train", root, op, created, succeeded)
	t.add("serve.observe", root, op, succeeded, served)
}

func (t *tracer) refreshed(dataset string, version int, sent, applied, served time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.refreshes = append(t.refreshes, refreshEvent{dataset, version, sent, applied, served})
	t.mu.Unlock()
}

func (t *tracer) trained(id string, sent, served time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trains[id] = trainEvent{sent, served}
	t.mu.Unlock()
}

// jobs turns the job records (GET /v1/jobs timestamps) into the jobs
// layer's waits: the debounce before an auto-refresh job is submitted
// (from its append's response), the queue wait and the run, and spans
// for each refresh and train operation.
func (t *tracer) jobs(recs []*jobs.Record) {
	if t == nil {
		return
	}
	byVersion := map[string]*jobs.Record{}
	for _, r := range recs {
		if r.State != jobs.StateSucceeded || r.StartedAt == nil || r.FinishedAt == nil {
			continue
		}
		byVersion[fmt.Sprintf("%s@%d", r.Spec.Dataset, r.Spec.DatasetVersion)] = r
		t.sample("jobs.queue_wait_ms", ms(r.StartedAt.Sub(r.SubmittedAt)))
		t.sample("jobs.run_ms", ms(r.FinishedAt.Sub(*r.StartedAt)))
		if ev, ok := t.trains[r.ID]; ok {
			op := t.op()
			root := t.add("op.train", -1, op, ev.sent, ev.served)
			t.add("jobs.submit", root, op, ev.sent, r.SubmittedAt)
			t.add("jobs.queue", root, op, r.SubmittedAt, *r.StartedAt)
			t.add("jobs.run", root, op, *r.StartedAt, *r.FinishedAt)
			t.add("serve.observe", root, op, *r.FinishedAt, ev.served)
			t.sample("jobs.debounce_wait_ms", ms(r.SubmittedAt.Sub(ev.sent)))
		}
	}
	for _, ev := range t.refreshes {
		r, ok := byVersion[fmt.Sprintf("%s@%d", ev.dataset, ev.version)]
		if !ok {
			continue // folded into a later version's refresh by the debounce
		}
		op := t.op()
		root := t.add("op.refresh", -1, op, ev.sent, ev.served)
		t.add("datastore.append", root, op, ev.sent, ev.applied)
		t.add("jobs.debounce", root, op, ev.applied, r.SubmittedAt)
		t.add("jobs.queue", root, op, r.SubmittedAt, *r.StartedAt)
		t.add("jobs.run", root, op, *r.StartedAt, *r.FinishedAt)
		t.add("serve.observe", root, op, *r.FinishedAt, ev.served)
		t.sample("jobs.debounce_wait_ms", ms(r.SubmittedAt.Sub(ev.applied)))
	}
}

// cacheScrape tracks the prediction cache counters over a phase from
// /metrics. A hot-swap replaces a model's cache, so a counter that went
// down restarted from zero.
type cacheScrape struct {
	mu        sync.Mutex
	last      map[string][3]float64
	hits      float64
	misses    float64
	evictions float64
}

// scrapeCache starts counting, scraping through the generator every
// 250ms until `until` so that swaps lose little.
func (t *tracer) scrapeCache(ctx context.Context, srv *server, g *generator, until time.Time) *cacheScrape {
	if t == nil {
		return nil
	}
	c := &cacheScrape{last: map[string][3]float64{}}
	c.scrape(ctx, srv, true)
	var tick func(ctx context.Context, now time.Time)
	tick = func(ctx context.Context, now time.Time) {
		c.scrape(ctx, srv, false)
		if next := now.Add(250 * time.Millisecond); next.Before(until) {
			g.push(task{due: next, run: tick})
		}
	}
	g.push(task{due: time.Now().Add(250 * time.Millisecond), run: tick})
	return c
}

// scrape adds the counters' growth since the last scrape. A model first
// seen after the baseline was registered during the phase, so all of
// its counts are new.
func (c *cacheScrape) scrape(ctx context.Context, srv *server, baseline bool) {
	per, err := srv.cacheCounters(ctx)
	if err != nil {
		return // a lost scrape only coarsens the deltas
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for model, cur := range per {
		prev, seen := c.last[model]
		for i, dst := range []*float64{&c.hits, &c.misses, &c.evictions} {
			switch {
			case baseline:
			case !seen || cur[i] < prev[i]:
				*dst += cur[i]
			default:
				*dst += cur[i] - prev[i]
			}
		}
		c.last[model] = cur
	}
}

// done takes the final scrape and records the phase's cache metrics.
func (c *cacheScrape) done(ctx context.Context, srv *server, t *tracer) {
	if c == nil {
		return
	}
	c.scrape(ctx, srv, false)
	c.mu.Lock()
	defer c.mu.Unlock()
	t.counts["serve.cache_evictions"] = c.evictions
	if n := c.hits + c.misses; n > 0 {
		t.counts["serve.cache_hit_ratio"] = c.hits / n
	}
}

// snapshotInput is one dataset version the workload trained on.
type snapshotInput struct {
	matrix  *dataset.Matrix
	cfg     rcbt.Config
	name    string
	version int
}

// replayInput is what a workload recorded for the per-layer replay.
type replayInput struct {
	snapshots []snapshotInput
	// appends replays Store.Append: the cohort's initial rows are
	// created, then each of its appends applied. With no appends the
	// initial rows are split into a create and one append.
	appends *cohort
	mx      *requestMix
	recs    []*classifyRec
	model   *rcbt.Model
}

// replay times the benchmark's own calls into each layer's public
// functions on the workload's recorded inputs.
func (t *tracer) replay(ctx context.Context, dir string, in *replayInput) error {
	if t == nil {
		return nil
	}
	for _, snap := range in.snapshots {
		if err := t.replaySnapshot(ctx, snap); err != nil {
			return err
		}
	}
	if err := t.replayStore(dir, in.appends); err != nil {
		return err
	}
	return t.replayReads(in)
}

func allocs() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// replaySnapshot replays the write path on one snapshot: fit,
// transform, the train pipeline layer by layer (per-class mining,
// FindLB, coverage selection, as rcbt.TrainContext composes them), the
// whole rcbt.TrainContext, Model.Save and Server.RegisterModel.
func (t *tracer) replaySnapshot(ctx context.Context, snap snapshotInput) error {
	op := t.op()
	root := t.add("replay.snapshot", -1, op, time.Now(), time.Now())
	rootStart := time.Now()
	var (
		dz  *discretize.Discretizer
		d   *dataset.Dataset
		err error
	)
	m0, _ := allocs()
	_, dur := t.timed("discretize.fit", root, op, func() { dz, err = discretize.FitMatrix(snap.matrix) })
	if err != nil {
		return err
	}
	m1, _ := allocs()
	t.sample("discretize.fit_ms", ms(dur))
	t.sample("discretize.fit_allocs", float64(m1-m0))
	_, dur = t.timed("discretize.transform", root, op, func() { d, err = dz.Transform(snap.matrix) })
	if err != nil {
		return err
	}
	t.sample("discretize.transform_ms", ms(dur))

	cfg := snap.cfg
	if err := t.replayTrain(ctx, root, op, d, cfg); err != nil {
		return err
	}

	var cls *rcbt.Classifier
	_, b0 := allocs()
	_, dur = t.timed("rcbt.train", root, op, func() { cls, err = rcbt.TrainContext(ctx, d, cfg) })
	if err != nil {
		return err
	}
	_, b1 := allocs()
	t.sample("rcbt.train_ms", ms(dur))
	t.sample("rcbt.train_alloc_mb", float64(b1-b0)/(1<<20))
	model := &rcbt.Model{Classifier: cls, Discretizer: dz, ClassNames: d.ClassNames, NumItems: d.NumItems(),
		Meta: rcbt.Meta{Dataset: snap.name, DatasetVersion: snap.version, TrainRows: d.NumRows()}}
	var buf bytes.Buffer
	_, dur = t.timed("rcbt.save", root, op, func() { err = model.Save(&buf) })
	if err != nil {
		return err
	}
	t.sample("rcbt.save_ms", ms(dur))
	t.sample("rcbt.model_kb", float64(buf.Len())/1024)

	srv, err := serve.New(serve.Config{Models: map[string]*rcbt.Model{snap.name: model}})
	if err != nil {
		return err
	}
	_, dur = t.timed("serve.register", root, op, func() { err = srv.RegisterModel(snap.name, model) })
	if err != nil {
		return err
	}
	t.sample("serve.register_ms", ms(dur))
	t.mu.Lock()
	t.spans[root].Start, t.spans[root].End = ms(rootStart.Sub(t.t0)), ms(time.Since(t.t0))
	t.mu.Unlock()
	return nil
}

// replayTrain composes the train pipeline from its layers the way
// rcbt.TrainContext does, timing each call: core.MineContext per class
// (also at one worker, for the engine's node overhead), then per rank
// lowerbound.FindAll on the rank's new groups and cba.CoverageSelect on
// the rank's rule pool.
func (t *tracer) replayTrain(ctx context.Context, parent, op int, d *dataset.Dataset, cfg rcbt.Config) error {
	k, nl, frac := cfg.K, cfg.NL, cfg.MinsupFrac
	if k == 0 {
		k = 10
	}
	if nl == 0 {
		nl = 20
	}
	if frac == 0 {
		frac = 0.7
	}
	classCount := make([]int, d.NumClasses())
	for _, l := range d.Labels {
		classCount[int(l)]++
	}
	var perClass []*core.Result
	var mineDur time.Duration
	nodes, nodesPar, nodesSeq := 0, 0, 0
	for cls := 0; cls < d.NumClasses(); cls++ {
		if classCount[cls] == 0 {
			continue
		}
		minsup := int(frac * float64(classCount[cls]))
		if float64(minsup) < frac*float64(classCount[cls]) {
			minsup++
		}
		mc := core.DefaultConfig(max(minsup, 1), k)
		mc.Workers = cfg.Workers
		var (
			res *core.Result
			err error
		)
		_, dur := t.timed("core.mine", parent, op, func() { res, err = core.MineContext(ctx, d, dataset.Label(cls), mc) })
		if err != nil {
			return err
		}
		mineDur += dur
		nodes += res.Stats.Nodes
		perClass = append(perClass, res)
		// The class again at the other worker count (1 or nproc), for
		// the engine's node overhead; not a layer span of the pipeline.
		other := mc
		other.Workers = 1
		if mc.Workers <= 1 {
			other.Workers = runtime.NumCPU()
		}
		o, err := core.MineContext(ctx, d, dataset.Label(cls), other)
		if err != nil {
			return err
		}
		par, seq := res.Stats.Nodes, o.Stats.Nodes
		if mc.Workers <= 1 {
			par, seq = seq, par
		}
		nodesPar += par
		nodesSeq += seq
	}
	t.sample("core.mine_ms", ms(mineDur))
	t.sample("engine.nodes", float64(nodes))
	if mineDur > 0 {
		t.sample("engine.nodes_per_s", float64(nodes)/mineDur.Seconds())
	}
	if nodesSeq > 0 {
		t.sample("engine.nodes_overhead_ratio", float64(nodesPar)/float64(nodesSeq))
	}

	scores := lowerbound.DefaultItemScores(d)
	cache := map[*rules.Group][]*rules.Rule{}
	var lbDur, selDur time.Duration
	var lbBytes uint64
	found, pooled, kept := 0, 0, 0
	for j := 0; j < k; j++ {
		seen := map[*rules.Group]bool{}
		var rg, missing []*rules.Group
		for _, res := range perClass {
			for _, gs := range res.PerRow {
				if j < len(gs) && !seen[gs[j]] {
					seen[gs[j]] = true
					rg = append(rg, gs[j])
				}
			}
		}
		for _, g := range rg {
			if _, ok := cache[g]; !ok {
				missing = append(missing, g)
			}
		}
		if len(missing) > 0 {
			var out [][]*rules.Rule
			_, b0 := allocs()
			_, dur := t.timed("lowerbound.findall", parent, op, func() {
				out = lowerbound.FindAll(d, missing, lowerbound.Config{NL: nl, ItemScore: scores})
			})
			_, b1 := allocs()
			lbDur += dur
			lbBytes += b1 - b0
			for i, g := range missing {
				cache[g] = out[i]
				found += len(out[i])
			}
		}
		var pool []*rules.Rule
		dedup := map[string]bool{}
		for _, g := range rg {
			for _, lb := range cache[g] {
				key := fmt.Sprintf("%d|%v", lb.Class, lb.Antecedent)
				if !dedup[key] {
					dedup[key] = true
					pool = append(pool, lb)
				}
			}
		}
		if len(pool) == 0 {
			continue
		}
		rules.SortCBA(pool)
		var selected []*rules.Rule
		_, dur := t.timed("cba.select", parent, op, func() { selected, _ = cba.CoverageSelect(d, pool) })
		selDur += dur
		pooled += len(pool)
		kept += len(selected)
	}
	t.sample("lowerbound.findlb_ms", ms(lbDur))
	t.sample("lowerbound.alloc_mb", float64(lbBytes)/(1<<20))
	t.sample("lowerbound.rules_found", float64(found))
	t.sample("cba.select_ms", ms(selDur))
	if pooled > 0 {
		t.sample("cba.selected_ratio", float64(kept)/float64(pooled))
	}
	return nil
}

// replayStore times datastore.Store.Append on a benchmark-owned store.
// persist_ms is the append minus a fit and transform of the same
// post-append matrix.
func (t *tracer) replayStore(dir string, coh *cohort) error {
	store, err := datastore.Open(datastore.Config{Dir: filepath.Join(dir, "replay-store")})
	if err != nil {
		return err
	}
	initial, appends := coh.initial, coh.appends
	if len(appends) == 0 {
		n := initial.NumRows() - refreshAppendRows
		split := func(lo, hi int) *dataset.Matrix {
			return &dataset.Matrix{GeneNames: initial.GeneNames, ClassNames: initial.ClassNames,
				Values: initial.Values[lo:hi], Labels: initial.Labels[lo:hi]}
		}
		initial, appends = split(0, n), []*dataset.Matrix{split(n, initial.NumRows())}
	}
	if _, err := store.Create("replay", initial.ClassNames, initial.GeneNames, initial.Values, initial.Labels); err != nil {
		return err
	}
	op := t.op()
	for _, a := range appends {
		var (
			snap *datastore.Snapshot
			err  error
		)
		id, dur := t.timed("datastore.append", -1, op, func() { snap, err = store.Append("replay", a.Values, a.Labels) })
		if err != nil {
			return err
		}
		t.sample("datastore.append_ms", ms(dur))
		start := time.Now()
		dz, err := discretize.FitMatrix(snap.Matrix)
		if err != nil {
			return err
		}
		if _, err := dz.Transform(snap.Matrix); err != nil {
			return err
		}
		build := time.Since(start)
		t.add("replay.fit_transform", id, op, start, start.Add(build))
		t.sample("datastore.persist_ms", ms(dur-build))
	}
	return nil
}

// replayReads times the read path's layers on the recorded classify
// requests: decoding each body, discretizing its raw rows, scoring its
// rows with a BatchScorer, and encoding the response.
func (t *tracer) replayReads(in *replayInput) error {
	m := in.model
	scorer := rcbt.NewBatchScorer(m.Classifier, m.NumItems)
	var decode, rowItems, score, encode time.Duration
	rows, rawRows, reqs := 0, 0, 0
	for _, rec := range in.recs {
		if rec.err != nil {
			continue
		}
		body := in.mx.body(rec.req)
		op := t.op()
		var (
			sets []*bitset.Set
			err  error
		)
		if rec.req.batch {
			var req serve.BatchRequest
			_, dur := t.timed("serve.decode", -1, op, func() { err = json.Unmarshal(body, &req) })
			if err != nil {
				return err
			}
			decode += dur
			for _, r := range req.Rows {
				s := bitset.New(m.NumItems)
				for _, it := range r.Items {
					s.Add(it)
				}
				sets = append(sets, s)
			}
		} else {
			var req serve.ClassifyRequest
			_, dur := t.timed("serve.decode", -1, op, func() { err = json.Unmarshal(body, &req) })
			if err != nil {
				return err
			}
			decode += dur
			var items []int
			_, dur = t.timed("discretize.rowitems", -1, op, func() { items = m.Discretizer.RowItems(req.Values) })
			rowItems += dur
			rawRows++
			s := bitset.New(m.NumItems)
			for _, it := range items {
				s.Add(it)
			}
			sets = append(sets, s)
		}
		labels := make([]dataset.Label, len(sets))
		idxs := make([]int, len(sets))
		_, dur := t.timed("rcbt.score", -1, op, func() { scorer.PredictInto(sets, labels, idxs) })
		score += dur
		rows += len(sets)
		var resp any
		if rec.req.batch {
			br := serve.BatchResponse{Model: rec.model, Results: make([]serve.BatchResult, len(labels))}
			for i, l := range labels {
				br.Results[i] = serve.BatchResult{Label: int(l), Class: m.ClassName(l), Classifier: idxs[i]}
			}
			resp = br
		} else {
			resp = serve.ClassifyResponse{Model: rec.model, Label: int(labels[0]), Class: m.ClassName(labels[0]), Classifier: idxs[0]}
		}
		_, dur = t.timed("serve.encode", -1, op, func() { err = json.NewEncoder(io.Discard).Encode(resp) })
		if err != nil {
			return err
		}
		encode += dur
		reqs++
	}
	if reqs == 0 {
		return nil
	}
	us := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	t.counts["serve.decode_us_per_row"] = us(decode, rows)
	t.counts["serve.encode_us_per_req"] = us(encode, reqs)
	t.counts["rcbt.score_us_per_row"] = us(score, rows)
	if rawRows > 0 {
		t.counts["discretize.rowitems_us_per_row"] = us(rowItems, rawRows)
	}
	return nil
}

// perLayerNames are the per-layer metrics a traced run prints, in
// output order. Units: the suffix names them.
var perLayerNames = []struct{ name, unit string }{
	{"serve.decode_us_per_row", "us"}, {"serve.encode_us_per_req", "us"},
	{"discretize.rowitems_us_per_row", "us"}, {"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"}, {"rcbt.score_us_per_row", "us"},
	{"discretize.fit_ms", "ms"}, {"discretize.fit_allocs", "count"}, {"discretize.transform_ms", "ms"},
	{"datastore.append_ms", "ms"}, {"datastore.persist_ms", "ms"},
	{"jobs.debounce_wait_ms", "ms"}, {"jobs.queue_wait_ms", "ms"}, {"jobs.run_ms", "ms"},
	{"core.mine_ms", "ms"}, {"engine.nodes", "count"}, {"engine.nodes_per_s", "1/s"},
	{"engine.nodes_overhead_ratio", "ratio"},
	{"lowerbound.findlb_ms", "ms"}, {"lowerbound.alloc_mb", "MB"}, {"lowerbound.rules_found", "count"},
	{"cba.select_ms", "ms"}, {"cba.selected_ratio", "ratio"},
	{"rcbt.train_ms", "ms"}, {"rcbt.train_alloc_mb", "MB"}, {"rcbt.save_ms", "ms"}, {"rcbt.model_kb", "KB"},
	{"serve.register_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.backlog_max", "count"},
}

// metrics resolves every per-layer metric: a median over its samples,
// or a value measured once.
func (t *tracer) metrics(out *outcome) map[string]float64 {
	res := map[string]float64{}
	for k, v := range t.counts {
		res[k] = v
	}
	for k, vs := range t.samples {
		res[k] = median(vs)
	}
	res["loadgen.late_p99_ms"] = quantile(out.late, 0.99)
	res["loadgen.backlog_max"] = float64(out.backlogMax)
	return res
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close() // vetsuite:allow uncheckederr -- the encode error is the one reported
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() // vetsuite:allow uncheckederr -- the flush error is the one reported
		return err
	}
	return f.Close()
}

// selfTimes sums each layer's self time: a span's duration minus the
// part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.layer()] += max(0, s.End-s.Start-child[s.ID])
	}
	return self
}

// report prints the layer self times and each layer's share of the
// blocking steps of the workload's operations: for every operation
// root, the median duration of each direct child step over the median
// operation.
func (t *tracer) report(w io.Writer) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintln(w, "# trace: self time per layer (ms, summed over spans)")
	for _, l := range layers {
		fmt.Fprintf(w, "#   %-12s %12.3f\n", l, self[l])
	}
	type stepKey struct{ op, step string }
	roots := map[string][]float64{}
	steps := map[stepKey][]float64{}
	for _, s := range t.spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "op.") {
			roots[s.Name] = append(roots[s.Name], s.End-s.Start)
		}
	}
	for _, s := range t.spans {
		if s.Parent >= 0 && strings.HasPrefix(t.spans[s.Parent].Name, "op.") {
			k := stepKey{t.spans[s.Parent].Name, s.Name}
			steps[k] = append(steps[k], s.End-s.Start)
		}
	}
	ops := make([]string, 0, len(roots))
	for o := range roots {
		ops = append(ops, o)
	}
	sort.Strings(ops)
	for _, o := range ops {
		total := median(roots[o])
		fmt.Fprintf(w, "# trace: blocking steps of %s (n=%d, median %.3f ms)\n", o, len(roots[o]), total)
		var names []string
		for k := range steps {
			if k.op == o {
				names = append(names, k.step)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			m := median(steps[stepKey{o, n}])
			fmt.Fprintf(w, "#   %-26s median %10.3f ms  share %5.1f%%\n", n, m, 100*m/total)
		}
	}
	// The train pipeline's layers within one replayed snapshot.
	var parts []string
	var sum float64
	for _, n := range []string{"discretize.fit_ms", "discretize.transform_ms", "core.mine_ms", "lowerbound.findlb_ms", "cba.select_ms", "rcbt.save_ms", "serve.register_ms"} {
		if vs := t.samples[n]; len(vs) > 0 {
			sum += median(vs)
			parts = append(parts, n)
		}
	}
	if sum > 0 {
		fmt.Fprintln(w, "# trace: write path replayed in-process, share of fit + transform + train + save + register")
		for _, n := range parts {
			m := median(t.samples[n])
			fmt.Fprintf(w, "#   %-26s median %10.3f ms  share %5.1f%%\n", n, m, 100*m/sum)
		}
	}
}
