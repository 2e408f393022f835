package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/rcbt"
	"repro/internal/serve"
	"repro/internal/synth"
)

// window is share of --seconds. The ladder that follows a workload's
// windows sends a fixed number of requests.
func (b *bench) window(share float64) time.Duration {
	return time.Duration(b.seconds * share * float64(time.Second))
}

// runWindow runs a window's generator — with the traced run's
// /metrics scrapes — and records its lateness. The scrape goes on
// counting through finish.
func (b *bench) runWindow(ctx context.Context, srv *server, g *generator, until time.Time, out *outcome) *cacheScrape {
	scrape := b.tr.scrapeCache(ctx, srv, g, until)
	g.run(ctx, b.conns)
	out.late = msList(g.late)
	out.backlogMax = g.backlogMax
	return scrape
}

// finish measures the server CPU per classify request and runs the
// ladder, both on the workload's model with its other traffic stopped,
// then reads the cache counters and the server's peak RSS.
func (b *bench) finish(ctx context.Context, srv *server, scrape *cacheScrape, out *outcome, mx *requestMix, target string, ladderRecs *[]*classifyRec) error {
	out.classifyCPU = b.classifyCPU(ctx, srv, mx, target, ladderRecs)
	out.maxRPS, out.probes = b.ladder(ctx, srv, mx, target, ladderRecs)
	scrape.done(ctx, srv, b.tr)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	out.peakRSS = rss
	return nil
}

// classifyCPU sends cpuRequests of the mix back to back from nproc
// workers (a closed loop) and returns the server CPU per request. At a
// low fixed rate a request's CPU also holds the runtime waking idle
// threads for it, a share that shrinks when anything else keeps the
// cores busy (another process cut it by a fifth); back to back, the
// server is seldom idle and that share stays small.
func (b *bench) classifyCPU(ctx context.Context, srv *server, mx *requestMix, target string, all *[]*classifyRec) cpuSpan {
	var (
		recs []*classifyRec
		mu   sync.Mutex
	)
	const rate = 1e6 // all due at once: the workers send back to back
	g := newGenerator()
	g.addStream(b.classifyStream(srv, mx, func() string { return target }, rate, time.Duration(cpuRequests/rate*float64(time.Second)), &recs, &mu, nil))
	from, cpu0 := time.Now(), b.cpu(srv)
	g.run(ctx, b.conns)
	perRequest := cpuSpan{from, time.Now(), ms(b.cpu(srv)-cpu0) / float64(len(recs))}
	*all = append(*all, recs...)
	return perRequest
}

// jobRecords fetches the job records for the traced run's jobs layer.
func (b *bench) jobRecords(ctx context.Context, srv *server) ([]*jobs.Record, error) {
	if b.tr == nil {
		return nil, nil
	}
	return srv.jobList(ctx)
}

// fixedModel accepts the labels of one in-process model.
func fixedModel(ref *rcbt.Model, mx *requestMix) func(*classifyRec) ([][]int, error) {
	pred := newPredictor(ref, mx)
	return func(rec *classifyRec) ([][]int, error) {
		l, err := pred.labels(rec.req)
		return [][]int{l}, err
	}
}

// runClassify is the read path alone: one PC/4 model trained at set-up,
// an open-loop mix of raw-values rows and item-id batches, then the
// ladder.
func runClassify(ctx context.Context, b *bench) (*outcome, error) {
	out := &outcome{}
	sh := shape{profile: synth.Scaled(synth.PC(), 4), name: "pc", spec: jobs.Spec{Kind: jobs.KindTrain, Dataset: "pc", ModelName: "pc"}, reps: setupReps}
	srv, coh, envs, err := b.setup(ctx, sh, out)
	if err != nil {
		return nil, err
	}
	defer srv.stop() // vetsuite:allow uncheckederr -- the run's outcome is already measured
	ref, err := refModel(ctx, coh.initial, sh.trainConfig(), sh.name, 1)
	if err != nil {
		return nil, err
	}
	b.checkEnvelopes("train", envs, ref)
	mx, err := newRequestMix(coh.pool, ref.Discretizer, b.seed, true)
	if err != nil {
		return nil, err
	}

	window := b.window(classifyWindow)
	var (
		recs, ladderRecs []*classifyRec
		mu               sync.Mutex
		jobRecs          []*jobs.Record
	)
	st := b.classifyStream(srv, mx, func() string { return sh.name }, classifyRate, window, &recs, &mu, b.tr)
	start := st.start
	g := newGenerator()
	g.addStream(st)
	scrape := b.runWindow(ctx, srv, g, start.Add(window), out)
	if jobRecs, err = b.jobRecords(ctx, srv); err != nil {
		return nil, err
	}
	if err := b.finish(ctx, srv, scrape, out, mx, sh.name, &ladderRecs); err != nil {
		return nil, err
	}
	out.record(recs)
	// No appends or train jobs run in the window: the run's refresh and
	// train operations are the set-ups' dataset creates and train jobs.
	out.refresh, out.train = out.setupRefresh, out.setupTrain
	out.refreshCPU, out.trainCPU = out.setupRefreshCPU, out.setupTrainCPU

	if err := b.checkClassify(append(recs, ladderRecs...), fixedModel(ref, mx)); err != nil {
		return nil, err
	}
	b.tr.jobs(jobRecs)
	return out, b.tr.replay(ctx, b.dir, &replayInput{
		snapshots: []snapshotInput{{matrix: coh.initial, cfg: sh.trainConfig(), name: sh.name, version: 1}},
		appends:   coh, mx: mx, recs: recs, model: ref,
	})
}

// runTrain is mining-dominated: one closed-loop client submits train
// jobs on an OC/20 dataset, one at a time, then raw-values rows are
// classified against its model.
func runTrain(ctx context.Context, b *bench) (*outcome, error) {
	out := &outcome{}
	sh := shape{profile: synth.Scaled(synth.OC(), 20), name: "oc", spec: jobs.Spec{Kind: jobs.KindTrain, Dataset: "oc", ModelName: "oc",
		MinsupFrac: trainMinsupFrac, Workers: b.conns}, reps: trainSetupReps}
	srv, coh, envs, err := b.setup(ctx, sh, out)
	if err != nil {
		return nil, err
	}
	defer srv.stop() // vetsuite:allow uncheckederr -- the run's outcome is already measured
	ref, err := refModel(ctx, coh.initial, sh.trainConfig(), sh.name, 1)
	if err != nil {
		return nil, err
	}
	mx, err := newRequestMix(coh.pool, ref.Discretizer, b.seed, false)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.JobRequest{Spec: sh.spec})
	if err != nil {
		return nil, err
	}

	var (
		recs, ladderRecs []*classifyRec
		mu               sync.Mutex
		jobRecs          []*jobs.Record
	)
	start := time.Now().Add(streamLead)
	end := start.Add(b.window(trainJobsWindow))
	g := newGenerator()
	// One closed-loop client: submit, poll to a terminal state, fetch
	// the model, submit the next while the window lasts.
	var submit func(ctx context.Context, sent time.Time)
	submit = func(ctx context.Context, sent time.Time) {
		cpuSent := b.cpu(srv)
		var rec jobs.Record
		if err := srv.do(ctx, http.MethodPost, "/v1/jobs", body, &rec); err != nil {
			b.count("train", err)
			return
		}
		var poll func(ctx context.Context, now time.Time)
		poll = func(ctx context.Context, now time.Time) {
			r, err := srv.job(ctx, rec.ID)
			switch {
			case err != nil:
				b.count("train", err)
				return
			case !r.Terminal() && now.Sub(sent) < 2*opDeadline:
				g.push(task{due: time.Now().Add(pollInterval), run: poll})
				return
			case r.State != jobs.StateSucceeded:
				b.count("train", fmt.Errorf("job %s ended %s: %s", r.ID, r.State, r.Error))
				return
			}
			done, cpuDone := time.Now(), b.cpu(srv)
			env, err := srv.envelope(ctx, sh.name)
			b.count("train", err)
			if err != nil {
				return
			}
			b.tr.trained(r.ID, sent, done)
			mu.Lock()
			out.train = append(out.train, done.Sub(sent).Seconds())
			out.trainCPU = append(out.trainCPU, cpuSpan{sent, done, (cpuDone - cpuSent).Seconds()})
			envs = append(envs, env)
			mu.Unlock()
			if time.Now().Before(end) {
				g.push(task{due: time.Now(), run: submit})
			}
		}
		g.push(task{due: time.Now().Add(pollInterval), run: poll})
	}
	g.push(task{due: start, run: submit})
	scrape := b.runWindow(ctx, srv, g, end, out)
	if jobRecs, err = b.jobRecords(ctx, srv); err != nil {
		return nil, err
	}
	// Classify at a fixed rate once the jobs are done: beside a job the
	// reads' timing follows how the Go scheduler interleaves them with
	// the nproc mining goroutines, which spread the p50 by 26% between
	// runs. The refresh workload carries reads beside writes.
	g = newGenerator()
	g.addStream(b.classifyStream(srv, mx, func() string { return sh.name }, trainRate, b.window(trainWindow), &recs, &mu, b.tr))
	g.run(ctx, b.conns)
	out.late, out.backlogMax = msList(g.late), g.backlogMax
	if err := b.finish(ctx, srv, scrape, out, mx, sh.name, &ladderRecs); err != nil {
		return nil, err
	}
	out.record(recs)
	// The run creates no dataset after set-up: the set-up's create is
	// its rows-to-serving operation.
	out.refresh, out.refreshCPU = out.setupRefresh, out.setupRefreshCPU

	b.checkEnvelopes("train", envs, ref)
	if err := b.checkClassify(append(recs, ladderRecs...), fixedModel(ref, mx)); err != nil {
		return nil, err
	}
	b.tr.jobs(jobRecs)
	return out, b.tr.replay(ctx, b.dir, &replayInput{
		snapshots: []snapshotInput{{matrix: coh.initial, cfg: sh.trainConfig(), name: sh.name, version: 1}},
		appends:   coh, mx: mx, recs: recs, model: ref,
	})
}

// checkEnvelopes compares served model envelopes with the in-process
// reference; each mismatch fails one operation of kind.
func (b *bench) checkEnvelopes(kind string, envs [][]byte, ref *rcbt.Model) {
	for _, env := range envs {
		ok, err := sameEnvelope(env, ref)
		if err != nil || !ok {
			b.mismatch(kind, "served model %s v%d differs from in-process rcbt.TrainContext (err=%v)",
				ref.Meta.Dataset, ref.Meta.DatasetVersion, err)
		}
	}
}

// settledJobs lists the jobs once every one submitted since start is
// terminal. A train job registers its model before its record turns
// succeeded, so the last refresh can be serving while its job still
// reads running.
func settledJobs(ctx context.Context, srv *server, start time.Time) ([]*jobs.Record, error) {
	deadline := time.Now().Add(opDeadline)
	for {
		list, err := srv.jobList(ctx)
		if err != nil {
			return nil, err
		}
		settled := true
		for _, r := range list {
			if !r.SubmittedAt.Before(start) && !r.Terminal() {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			return list, nil
		}
		time.Sleep(pollInterval)
	}
}

// refreshDataset is one dataset of the refresh workload.
type refreshDataset struct {
	name   string
	coh    *cohort
	create []byte // encoded create request (datasets after the first)
	// guarded by the workload's mutex while the window runs
	latest  int               // newest snapshot version
	applied map[int]time.Time // snapshot version -> its append's response
	seen    map[int]time.Time // served model version -> first seen
	envs    map[int][]byte    // served model version -> envelope
	refs    map[int]*rcbt.Model
}

// refreshCycle is one append of the refresh workload, timed at its
// task's start (before the create of a fresh dataset), its rows' send
// and the first poll that saw its model serving, each with the server's
// CPU time then.
type refreshCycle struct {
	begun, sent, served          time.Time
	cpuBegun, cpuSent, cpuServed time.Duration
}

// cycleCPU is each refreshed append's server CPU from its rows' send to
// its model serving, less that of the classify stream beside it.
// Between one append's model serving and the next append's start only
// the stream runs: those quiet spells give its CPU per second.
func cycleCPU(cycles []refreshCycle) (refresh []cpuSpan) {
	var quietCPU, quietWall time.Duration
	for k := 0; k+1 < len(cycles); k++ {
		from, to := cycles[k].served, cycles[k+1].begun
		if from.IsZero() || to.IsZero() || !from.Before(to) {
			continue
		}
		quietCPU += cycles[k+1].cpuBegun - cycles[k].cpuServed
		quietWall += to.Sub(from)
	}
	perSecond := quietCPU.Seconds() / quietWall.Seconds()
	for _, c := range cycles {
		if c.served.IsZero() {
			continue
		}
		refresh = append(refresh, cpuSpan{c.sent, c.served, ms(c.cpuServed-c.cpuSent) - perSecond*ms(c.served.Sub(c.sent))})
	}
	return refresh
}

// runRefresh is the whole write path beside reads: PC/4 datasets get an
// append every refreshPeriod, each normally refreshed and hot-swapped on
// its own, while a raw-values classify stream runs against the newest
// dataset's model. After refreshPerDataset appends the workload moves
// to a fresh dataset so mining cost stays bounded.
func runRefresh(ctx context.Context, b *bench) (*outcome, error) {
	out := &outcome{}
	window := b.window(refreshWindow)
	appends := int(window / refreshPeriod)
	nsets := (appends + refreshPerDataset - 1) / refreshPerDataset
	spec := jobs.Spec{Kind: jobs.KindTrain, Dataset: "pc-0", ModelName: "pc-0"}
	sh := shape{profile: synth.Scaled(synth.PC(), 4), name: "pc-0", appends: refreshPerDataset, perAppend: refreshAppendRows, spec: spec, reps: setupReps}
	srv, coh0, envs, err := b.setup(ctx, sh, out)
	if err != nil {
		return nil, err
	}
	defer srv.stop() // vetsuite:allow uncheckederr -- the run's outcome is already measured

	sets := []*refreshDataset{{name: sh.name, coh: coh0}}
	for j := 1; j < nsets; j++ {
		// A fresh dataset: the same table under a new name.
		coh, err := newCohort(sh.profile, refreshPerDataset, refreshAppendRows)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("pc-%d", j)
		create, err := createBody(name, coh.initial)
		if err != nil {
			return nil, err
		}
		sets = append(sets, &refreshDataset{name: name, coh: coh, create: create})
	}
	for _, s := range sets {
		s.applied, s.seen, s.envs, s.refs = map[int]time.Time{}, map[int]time.Time{}, map[int][]byte{}, map[int]*rcbt.Model{}
	}
	appendBodies := make([][]byte, appends)
	for k := range appendBodies {
		s := sets[k/refreshPerDataset]
		if appendBodies[k], err = appendBody(s.coh.appends[k%refreshPerDataset]); err != nil {
			return nil, err
		}
	}
	ref0, err := refModel(ctx, coh0.initial, rcbt.Config{}, sh.name, 1)
	if err != nil {
		return nil, err
	}
	b.checkEnvelopes("train", envs, ref0)
	sets[0].latest, sets[0].seen[1], sets[0].refs[1] = 1, time.Now(), ref0
	mx, err := newRequestMix(coh0.pool, ref0.Discretizer, b.seed, false)
	if err != nil {
		return nil, err
	}

	var (
		recs, ladderRecs []*classifyRec
		mu               sync.Mutex
		targetIdx        int
	)
	target := func() string {
		mu.Lock()
		defer mu.Unlock()
		return sets[targetIdx].name
	}
	// observe polls the served models once. It records the first
	// sighting of every new model version, fetching its envelope for the
	// output check, and moves the classify stream to the newest
	// dataset's model once that serves.
	observe := func(ctx context.Context) (map[string]serve.ModelInfo, time.Time, error) {
		models, err := srv.models(ctx)
		now := time.Now()
		if err != nil {
			return nil, now, err
		}
		for j, s := range sets {
			v := servedVersion(models, s.name)
			mu.Lock()
			_, known := s.seen[v]
			mu.Unlock()
			if v < 1 || known {
				continue
			}
			env, err := srv.envelope(ctx, s.name)
			if err != nil {
				return nil, now, err
			}
			mu.Lock()
			s.seen[v] = now
			s.envs[v] = env
			targetIdx = max(targetIdx, j)
			mu.Unlock()
		}
		return models, now, nil
	}

	st := b.classifyStream(srv, mx, target, refreshRate, window, &recs, &mu, b.tr)
	start := st.start
	g := newGenerator()
	g.addStream(st)
	cycles := make([]refreshCycle, appends)
	for k := 0; k < appends; k++ {
		j := k / refreshPerDataset
		s := sets[j]
		body := appendBodies[k]
		first := k%refreshPerDataset == 0 && j > 0
		g.push(task{due: start.Add(refreshPeriod/2 + time.Duration(k)*refreshPeriod), run: func(ctx context.Context, _ time.Time) {
			begun, cpuBegun := time.Now(), b.cpu(srv)
			mu.Lock()
			cycles[k].begun, cycles[k].cpuBegun = begun, cpuBegun
			mu.Unlock()
			if first {
				err := srv.do(ctx, http.MethodPost, "/v1/datasets", s.create, nil)
				b.count("append", err)
				if err != nil {
					b.count("refresh", err)
					return
				}
				mu.Lock()
				s.latest = 1
				mu.Unlock()
			}
			sent, cpuSent := time.Now(), b.cpu(srv)
			var info serve.DatasetInfo
			err := srv.do(ctx, http.MethodPost, "/v1/datasets/"+s.name+"/rows", body, &info)
			b.count("append", err)
			if err != nil {
				b.count("refresh", err)
				return
			}
			applied := time.Now()
			mu.Lock()
			s.latest = max(s.latest, info.Version)
			s.applied[info.Version] = applied
			mu.Unlock()
			var poll func(ctx context.Context, _ time.Time)
			poll = func(ctx context.Context, _ time.Time) {
				models, now, err := observe(ctx)
				switch {
				case err != nil:
					b.count("refresh", err)
				case servedVersion(models, s.name) >= info.Version:
					b.count("refresh", nil)
					b.tr.refreshed(s.name, info.Version, sent, applied, now)
					served, cpuServed := time.Now(), b.cpu(srv)
					mu.Lock()
					out.refresh = append(out.refresh, ms(now.Sub(sent)))
					c := &cycles[k]
					c.sent, c.cpuSent, c.served, c.cpuServed = sent, cpuSent, served, cpuServed
					mu.Unlock()
				case now.Sub(sent) > opDeadline:
					b.count("refresh", fmt.Errorf("%s v%d not serving %v after its append", s.name, info.Version, opDeadline))
				default:
					g.push(task{due: now.Add(pollInterval), run: poll})
				}
			}
			g.push(task{due: applied.Add(pollInterval), run: poll})
		}})
	}
	scrape := b.runWindow(ctx, srv, g, start.Add(window), out)
	// The auto-refresh train jobs, submit to succeeded from their
	// records, are the run's train operations.
	jobRecs, err := settledJobs(ctx, srv, start)
	if err != nil {
		return nil, err
	}
	for _, r := range jobRecs {
		if r.SubmittedAt.Before(start) {
			continue
		}
		if r.State != jobs.StateSucceeded || r.FinishedAt == nil {
			b.count("train", fmt.Errorf("auto-refresh job %s ended %s: %s", r.ID, r.State, r.Error))
			continue
		}
		b.count("train", nil)
		out.train = append(out.train, r.FinishedAt.Sub(r.SubmittedAt).Seconds())
	}
	out.trainCPU = out.setupTrainCPU
	out.refreshCPU = cycleCPU(cycles)
	if err := b.finish(ctx, srv, scrape, out, mx, target(), &ladderRecs); err != nil {
		return nil, err
	}
	out.record(recs)

	// Output checks: every served version against a from-scratch train
	// of its snapshot, and every label against a model that may have
	// served it.
	refFor := func(s *refreshDataset, v int) (*rcbt.Model, error) {
		if m, ok := s.refs[v]; ok {
			return m, nil
		}
		m, err := refModel(ctx, s.coh.rowsUpTo(v-1), rcbt.Config{}, s.name, v)
		if err != nil {
			return nil, err
		}
		s.refs[v] = m
		return m, nil
	}
	// The from-scratch trains of the served versions, nproc at a time.
	type version struct {
		s *refreshDataset
		v int
	}
	var (
		todo  = make(chan version)
		wg    sync.WaitGroup
		refMu sync.Mutex
		first error
	)
	for w := 0; w < b.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range todo {
				m, err := refModel(ctx, t.s.coh.rowsUpTo(t.v-1), rcbt.Config{}, t.s.name, t.v)
				refMu.Lock()
				if err != nil && first == nil {
					first = err
				}
				t.s.refs[t.v] = m
				refMu.Unlock()
			}
		}()
	}
	for _, s := range sets {
		for v := range s.envs {
			if _, ok := s.refs[v]; !ok {
				todo <- version{s, v}
			}
		}
	}
	close(todo)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	var snaps []snapshotInput
	byName := map[string]*refreshDataset{}
	for _, s := range sets {
		byName[s.name] = s
		for _, v := range sortedKeys(s.envs) {
			m, err := refFor(s, v)
			if err != nil {
				return nil, err
			}
			b.checkEnvelopes("refresh", [][]byte{s.envs[v]}, m)
			snaps = append(snaps, snapshotInput{matrix: s.coh.rowsUpTo(v - 1), cfg: rcbt.Config{}, name: s.name, version: v})
		}
	}
	preds := map[*rcbt.Model]*predictor{}
	accept := func(rec *classifyRec) ([][]int, error) {
		s := byName[rec.model]
		// The versions that may have served the request: from the newest
		// seen before it was sent to the first seen after it returned
		// (or the newest snapshot, if none was seen after).
		lo, hi := 1, s.latest
		for _, v := range sortedKeys(s.seen) {
			if t := s.seen[v]; !t.After(rec.start) {
				lo = v
			} else if !t.Before(rec.end) {
				hi = min(hi, v)
			}
		}
		var cands [][]int
		for v := lo; v <= hi; v++ {
			m, err := refFor(s, v)
			if err != nil {
				return nil, err
			}
			p := preds[m]
			if p == nil {
				p = newPredictor(m, mx)
				preds[m] = p
			}
			l, err := p.labels(rec.req)
			if err != nil {
				return nil, err
			}
			cands = append(cands, l)
		}
		return cands, nil
	}
	if err := b.checkClassify(append(recs, ladderRecs...), accept); err != nil {
		return nil, err
	}
	b.tr.jobs(jobRecs)
	return out, b.tr.replay(ctx, b.dir, &replayInput{snapshots: snaps, appends: coh0, mx: mx, recs: recs, model: ref0})
}
