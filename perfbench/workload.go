package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/rcbt"
	"repro/internal/serve"
	"repro/internal/synth"
)

// Workload sizing. See the package doc for the measurements these rest
// on.
const (
	// Set-ups per run; setup_s is their median. A train set-up takes
	// ~1.3 s, mostly mining, so that workload makes fewer.
	setupReps      = 11
	trainSetupReps = 5

	pollInterval = 10 * time.Millisecond // GET /v1/models and /v1/jobs/{id} polls
	streamLead   = 50 * time.Millisecond // from building a stream to its first send
	opDeadline   = 20 * time.Second      // an append or job not done by then failed

	// Fixed rates (requests/s) and windows (shares of --seconds) of each
	// workload's classify traffic: 2,500, 3,333 and 3,333 requests at
	// --seconds 25.
	classifyRate, classifyWindow = 200.0, 0.5     // classify workload
	refreshRate, refreshWindow   = 200.0, 2.0 / 3 // beside refresh's appends
	trainRate, trainWindow       = 800.0, 1.0 / 6 // after train's jobs
	trainJobsWindow              = 0.4            // train's jobs phase

	// classify_p99_ms is the median of the p99s of consecutive parts of
	// the window, as many as it holds of p99PartSize requests, so that
	// each part's p99 has ten samples beyond it. The machine's noise comes
	// in spells of seconds; the median keeps a spell from setting the
	// run's tail.
	p99PartSize = 1000

	refreshPeriod     = time.Second // one append per period
	refreshAppendRows = 4
	refreshPerDataset = 6 // appends before moving to a fresh dataset

	trainMinsupFrac = 0.9

	ladderStep   = 1.05 // ladder rates grow by 5% a step
	ladderBase   = 20.0 // rate of ladder step 0, requests/s
	ladderBurst  = 400  // closed-loop requests measuring saturation
	ladderStart  = 0.85 // first step, as a share of saturation
	ladderProbes = 4    // steps a ladder takes
	// Requests per ladder step: its p99 then has 10 samples beyond it,
	// and every run sends the same number of requests.
	ladderStepRequests = 1000
	// Closed-loop requests classify_cpu_ms is measured over.
	cpuRequests  = 4000
	ladderLimit  = 100 * time.Millisecond // p99 limit a ladder step must meet
	ladderGrowth = 25 * time.Millisecond  // backlog growth a ladder step may show

	// A window whose generator was later than behindLate (p99) or had
	// more than behindBacklog operations overdue is flagged: its delay,
	// not the server's, may dominate the classify tail.
	behindLate    = 5 * time.Millisecond
	behindBacklog = 25
)

// counter is one operation kind's accounting.
type counter struct{ attempted, succeeded, failed int }

// bench is one run: a workload at a seed.
type bench struct {
	bin     string
	dir     string
	seed    int64
	seconds float64
	conns   int
	tr      *tracer // nil when untraced
	speed   *speedometer

	mu     sync.Mutex
	ops    map[string]*counter
	errors []string
}

// cpu reads the server's CPU time (see server.cpu), counting the read
// as an operation of kind "cpu".
func (b *bench) cpu(srv *server) time.Duration {
	c, err := srv.cpu()
	b.count("cpu", err)
	return c
}

func (b *bench) count(kind string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.ops[kind]
	if c == nil {
		c = &counter{}
		b.ops[kind] = c
	}
	c.attempted++
	if err == nil {
		c.succeeded++
		return
	}
	c.failed++
	if len(b.errors) < 20 {
		b.errors = append(b.errors, fmt.Sprintf("%s: %v", kind, err))
	}
}

// mismatch records a failed output check against an already counted
// operation.
func (b *bench) mismatch(kind, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.ops[kind]
	if c == nil {
		c = &counter{}
		b.ops[kind] = c
	}
	c.succeeded--
	c.failed++
	if len(b.errors) < 20 {
		b.errors = append(b.errors, fmt.Sprintf("%s check: %s", kind, fmt.Sprintf(format, args...)))
	}
}

// outcome holds a run's raw measurements.
type outcome struct {
	setup        []cpuSpan // s, process start to first model serving
	setupRefresh []float64 // ms, set-up dataset create to model serving
	setupTrain   []float64 // s, set-up train job submit to succeeded
	setupRSS     []float64 // MB, each set-up server's VmHWM once its model serves
	// Server CPU time of the set-up steps: the create to serving (ms)
	// and the train job (s).
	setupRefreshCPU []cpuSpan
	setupTrainCPU   []cpuSpan
	classify        []float64 // ms, fixed-rate window, from scheduled send
	p99             float64   // ms, median of the window parts' p99s
	partP99         []float64 // ms, each part's p99
	singles         []float64 // ms, the window's single-row requests
	batches         []float64 // ms, the window's batch requests
	refresh         []float64 // ms, append to served
	train           []float64 // s, job submit to succeeded
	classifyCPU     cpuSpan   // ms of server CPU per classify request, closed loop
	refreshCPU      []cpuSpan // ms of server CPU, rows sent to model serving
	trainCPU        []cpuSpan // s of server CPU, train job submit to succeeded
	maxRPS          float64
	probes          []probe
	peakRSS         float64
	late            []float64 // ms, window generator lateness
	backlogMax      int
}

// cpuSpan is a time measured over [from, to], in its metric's unit,
// before it is scaled to the reference speed (see speedometer).
type cpuSpan struct {
	from, to time.Time
	v        float64
}

// shape is what a workload's set-up creates and trains.
type shape struct {
	profile   synth.Profile
	name      string
	appends   int // training rows generated beyond the initial ones
	perAppend int
	spec      jobs.Spec
	reps      int // set-ups
}

func (sh shape) trainConfig() rcbt.Config {
	return rcbt.Config{K: sh.spec.K, NL: sh.spec.NL, MinsupFrac: sh.spec.MinsupFrac, Workers: sh.spec.Workers}
}

// setup runs set-up sh.reps times — generate data, start a server,
// create the dataset, train, wait for the model to serve — keeping the
// last server for the run.
func (b *bench) setup(ctx context.Context, sh shape, out *outcome) (*server, *cohort, [][]byte, error) {
	var (
		srv  *server
		coh  *cohort
		envs [][]byte
	)
	for i := 0; i < sh.reps; i++ {
		if err := srv.stop(); err != nil {
			return nil, nil, nil, fmt.Errorf("stop set-up server: %w", err)
		}
		start := time.Now()
		var err error
		if coh, err = newCohort(sh.profile, sh.appends, sh.perAppend); err != nil {
			return nil, nil, nil, err
		}
		srv, err = startServer(ctx, b.bin, filepath.Join(b.dir, fmt.Sprintf("setup%d", i)), b.conns)
		if err != nil {
			return nil, nil, nil, err
		}
		started := time.Now()
		body, err := createBody(sh.name, coh.initial)
		if err != nil {
			srv.kill()
			return nil, nil, nil, err
		}
		cpuSent := b.cpu(srv)
		if err := srv.do(ctx, http.MethodPost, "/v1/datasets", body, nil); err != nil {
			srv.kill()
			return nil, nil, nil, fmt.Errorf("set-up create: %w", err)
		}
		created, cpuCreated := time.Now(), b.cpu(srv)
		rec, err := b.submitAndWait(ctx, srv, sh.spec)
		if err != nil {
			srv.kill()
			return nil, nil, nil, fmt.Errorf("set-up train: %w", err)
		}
		succeeded, cpuSucceeded := time.Now(), b.cpu(srv)
		if err := waitServed(ctx, srv, sh.name); err != nil {
			srv.kill()
			return nil, nil, nil, err
		}
		served, cpuServed := time.Now(), b.cpu(srv)
		rss, err := srv.peakRSSMB()
		if err != nil {
			srv.kill()
			return nil, nil, nil, err
		}
		out.setupRSS = append(out.setupRSS, rss)
		out.setupRefresh = append(out.setupRefresh, ms(served.Sub(started)))
		out.setupTrain = append(out.setupTrain, succeeded.Sub(created).Seconds())
		out.setup = append(out.setup, cpuSpan{start, served, served.Sub(start).Seconds()})
		out.setupRefreshCPU = append(out.setupRefreshCPU, cpuSpan{started, served, ms(cpuServed - cpuSent)})
		out.setupTrainCPU = append(out.setupTrainCPU, cpuSpan{created, succeeded, (cpuSucceeded - cpuCreated).Seconds()})
		b.tr.setupSpans(start, started, created, succeeded, served)
		b.tr.trained(rec.ID, created, served)
		env, err := srv.envelope(ctx, rec.ModelName)
		if err != nil {
			srv.kill()
			return nil, nil, nil, err
		}
		envs = append(envs, env)
	}
	return srv, coh, envs, nil
}

// waitServed polls GET /v1/models until the named model serves.
func waitServed(ctx context.Context, srv *server, name string) error {
	deadline := time.Now().Add(opDeadline)
	for {
		models, err := srv.models(ctx)
		if err != nil {
			return err
		}
		if servedVersion(models, name) >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("model %s not serving after %v", name, opDeadline)
		}
		time.Sleep(pollInterval)
	}
}

// submitAndWait submits a train job and polls it to a terminal state.
func (b *bench) submitAndWait(ctx context.Context, srv *server, spec jobs.Spec) (*jobs.Record, error) {
	var rec jobs.Record
	if err := srv.postJSON(ctx, "/v1/jobs", serve.JobRequest{Spec: spec}, &rec); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(2 * opDeadline)
	for !rec.Terminal() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after %v", rec.ID, rec.State, 2*opDeadline)
		}
		time.Sleep(pollInterval)
		r, err := srv.job(ctx, rec.ID)
		if err != nil {
			return nil, err
		}
		rec = *r
	}
	if rec.State != jobs.StateSucceeded {
		return nil, fmt.Errorf("job %s ended %s: %s", rec.ID, rec.State, rec.Error)
	}
	return &rec, nil
}

// classifyRec is one classify request's outcome.
type classifyRec struct {
	req             classifyReq
	model           string
	due, start, end time.Time
	err             error
	labels          []int
}

func (r *classifyRec) latency() time.Duration { return r.end.Sub(r.due) }

// classifyStream is an open-loop stream of the mix's requests at rate
// for dur, starting streamLead after it is built. Each goes to the model
// target() names at send time and is traced when tr is not nil.
func (b *bench) classifyStream(srv *server, mx *requestMix, target func() string, rate float64, dur time.Duration, recs *[]*classifyRec, mu *sync.Mutex, tr *tracer) *stream {
	// Draw every request and encode the batches before the stream
	// starts, so the generator's own JSON work stays out of the timed
	// sends. A single row's body is one copy of a pre-encoded pool row,
	// cheap enough to build at send time.
	reqs := make([]classifyReq, int(math.Round(rate*dur.Seconds())))
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		reqs[i] = mx.draw()
		if reqs[i].batch {
			bodies[i] = mx.body(reqs[i])
		}
	}
	return &stream{
		start: time.Now().Add(streamLead),
		rate:  rate,
		count: len(reqs),
		make: func(i int, due time.Time) task {
			body := bodies[i]
			bodies[i] = nil
			return task{due: due, run: func(ctx context.Context, started time.Time) {
				if body == nil {
					body = mx.body(reqs[i])
				}
				rec := &classifyRec{req: reqs[i], model: target(), due: due, start: started}
				b.classify(ctx, srv, body, rec)
				tr.classify(rec)
				mu.Lock()
				*recs = append(*recs, rec)
				mu.Unlock()
			}}
		},
	}
}

// classify sends one classify request and records its labels.
func (b *bench) classify(ctx context.Context, srv *server, body []byte, rec *classifyRec) {
	path := "/v1/models/" + rec.model + "/classify"
	if rec.req.batch {
		path += "/batch"
		var resp serve.BatchResponse
		rec.err = srv.do(ctx, http.MethodPost, path, body, &resp)
		for i, r := range resp.Results {
			if r.Error != "" && rec.err == nil {
				rec.err = fmt.Errorf("batch row %d: %s", i, r.Error)
			}
			rec.labels = append(rec.labels, r.Label)
		}
		if rec.err == nil && len(rec.labels) != len(rec.req.rows) {
			rec.err = fmt.Errorf("batch of %d rows answered %d results", len(rec.req.rows), len(rec.labels))
		}
	} else {
		var resp serve.ClassifyResponse
		rec.err = srv.do(ctx, http.MethodPost, path, body, &resp)
		rec.labels = []int{resp.Label}
	}
	rec.end = time.Now()
	b.count("classify", rec.err)
}

// latencies returns request latencies from the scheduled send; a
// failed request counts at its time to failure, which misses any limit
// a success could meet.
func latencies(recs []*classifyRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.latency())
	}
	return out
}

// record stores the window's classify latencies, all and by kind, and
// the p99 of its consecutive parts.
func (out *outcome) record(recs []*classifyRec) {
	out.classify = latencies(recs)
	sorted := append([]*classifyRec(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].due.Before(sorted[j].due) })
	parts := max(1, len(sorted)/p99PartSize)
	for p := 0; p < parts; p++ {
		part := sorted[p*len(sorted)/parts : (p+1)*len(sorted)/parts]
		out.partP99 = append(out.partP99, quantile(latencies(part), 0.99))
	}
	out.p99 = median(out.partP99)
	for _, r := range recs {
		if r.req.batch {
			out.batches = append(out.batches, ms(r.latency()))
		} else {
			out.singles = append(out.singles, ms(r.latency()))
		}
	}
}

// probe is one ladder step.
type probe struct {
	rate    float64
	n       int
	p99     float64
	failed  int
	backlog int
	growth  float64 // ms, see backlogGrowth
	pass    bool
	gaveUp  bool
}

// backlogGrowth is how much longer requests waited to be sent in the
// last quarter of a step than in the first (mean, ms): above the
// service's capacity the backlog, and with it this wait, grows through
// the step.
func backlogGrowth(recs []*classifyRec) float64 {
	if len(recs) < 8 {
		return 0
	}
	s := append([]*classifyRec(nil), recs...)
	sort.Slice(s, func(i, j int) bool { return s[i].due.Before(s[j].due) })
	q := len(s) / 4
	mean := func(rs []*classifyRec) float64 {
		var sum float64
		for _, r := range rs {
			sum += ms(r.start.Sub(r.due))
		}
		return sum / float64(len(rs))
	}
	return mean(s[len(s)-q:]) - mean(s[:q])
}

// ladder finds the highest rate on the 5% grid at which the mix's p99
// meets ladderLimit with no failed request. A closed-loop burst first
// measures the saturation throughput. The ladder then starts a few
// steps below it and moves as a staircase — up after a step passes,
// down after it fails, two grid steps at a time until the first
// reversal and one after — for a fixed number of steps, so that it
// spends its steps around the boundary. The answer is the highest step
// that passed.
func (b *bench) ladder(ctx context.Context, srv *server, mx *requestMix, target string, all *[]*classifyRec) (float64, []probe) {
	run := func(rate float64, n int, giveUp time.Duration) (probe, []*classifyRec) {
		dur := time.Duration(float64(n) / rate * float64(time.Second))
		var (
			recs []*classifyRec
			mu   sync.Mutex
		)
		g := newGenerator()
		st := b.classifyStream(srv, mx, func() string { return target }, rate, dur, &recs, &mu, nil)
		st.giveUp = giveUp
		g.addStream(st)
		g.run(ctx, b.conns)
		*all = append(*all, recs...)
		p := probe{rate: rate, n: len(recs), backlog: g.backlogMax, gaveUp: st.abandoned}
		p.p99 = quantile(latencies(recs), 0.99)
		for _, rec := range recs {
			if rec.err != nil {
				p.failed++
			}
		}
		p.growth = backlogGrowth(recs)
		p.pass = !p.gaveUp && p.failed == 0 && p.n > 0 && p.p99 <= ms(ladderLimit) && p.growth <= ms(ladderGrowth)
		return p, recs
	}
	// Saturation: ladderBurst requests as fast as nproc workers send them.
	// Its first half warms connections and the cache; the second half is
	// timed.
	_, burst := run(float64(ladderBurst)/0.001, ladderBurst, 0)
	if len(burst) < ladderBurst {
		return 0, nil // canceled
	}
	sort.Slice(burst, func(i, j int) bool { return burst[i].start.Before(burst[j].start) })
	timed := burst[len(burst)/2:]
	last := timed[0].end
	for _, r := range timed {
		if r.end.After(last) {
			last = r.end
		}
	}
	saturation := float64(len(timed)) / last.Sub(timed[0].start).Seconds()
	probes := []probe{{rate: saturation, n: len(burst), p99: quantile(latencies(burst), 0.99), pass: true}}
	rate := func(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }
	k := int(math.Floor(math.Log(ladderStart*saturation/ladderBase) / math.Log(ladderStep)))
	best := -1
	step, up := 2, true // two grid steps at a time until the first reversal, then one
	for len(probes) < 1+ladderProbes && k >= 0 {
		time.Sleep(200 * time.Millisecond) // let the server drain between steps
		p, _ := run(rate(k), ladderStepRequests, 4*ladderLimit)
		probes = append(probes, p)
		if p.pass {
			best = max(best, k)
		}
		if len(probes) > 2 && p.pass != up {
			step = 1
		}
		if up = p.pass; up {
			k += step
		} else {
			k -= step
		}
	}
	if best < 0 {
		return 0, probes
	}
	return rate(best), probes
}

// predictor memoizes an in-process model's labels per request row.
type predictor struct {
	m    *rcbt.Model
	mx   *requestMix
	memo map[rowRef]int
}

func newPredictor(m *rcbt.Model, mx *requestMix) *predictor {
	return &predictor{m: m, mx: mx, memo: map[rowRef]int{}}
}

// labels predicts the request's rows as the server should: raw values
// through the model's cuts for a single row, item ids for a batch.
func (p *predictor) labels(req classifyReq) ([]int, error) {
	out := make([]int, len(req.rows))
	for i, ref := range req.rows {
		key := ref
		if req.batch {
			key.value = math.Inf(1) // item-id and raw forms of a row are distinct inputs
		}
		if l, ok := p.memo[key]; ok {
			out[i] = l
			continue
		}
		var (
			l   int
			err error
		)
		if req.batch {
			lab, _, e := p.m.PredictItems(p.mx.items(ref))
			l, err = int(lab), e
		} else {
			lab, _, e := p.m.PredictValues(p.mx.values(ref))
			l, err = int(lab), e
		}
		if err != nil {
			return nil, err
		}
		p.memo[key] = l
		out[i] = l
	}
	return out, nil
}

// sameEnvelope compares a served envelope with the in-process model's,
// ignoring meta.createdAt.
func sameEnvelope(served []byte, ref *rcbt.Model) (bool, error) {
	var refBuf bytes.Buffer
	if err := ref.Save(&refBuf); err != nil {
		return false, err
	}
	var a, c map[string]any
	if err := json.Unmarshal(served, &a); err != nil {
		return false, err
	}
	if err := json.Unmarshal(refBuf.Bytes(), &c); err != nil {
		return false, err
	}
	for _, env := range []map[string]any{a, c} {
		if meta, ok := env["meta"].(map[string]any); ok {
			delete(meta, "createdAt")
		}
	}
	ja, _ := json.Marshal(a) // maps of decoded JSON always re-encode
	jc, _ := json.Marshal(c)
	return string(ja) == string(jc), nil
}

// checkClassify verifies each record's labels with pred(rec), which
// returns the acceptable label vectors (more than one across a swap).
func (b *bench) checkClassify(recs []*classifyRec, accept func(rec *classifyRec) ([][]int, error)) error {
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		cands, err := accept(rec)
		if err != nil {
			return err
		}
		ok := false
		for _, c := range cands {
			if slices.Equal(c, rec.labels) {
				ok = true
				break
			}
		}
		if !ok {
			b.mismatch("classify", "model %s answered %v, in-process prediction %v", rec.model, rec.labels, cands)
		}
	}
	return nil
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
