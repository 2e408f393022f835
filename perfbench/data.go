package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/rcbt"
	"repro/internal/serve"
	"repro/internal/synth"
)

// Request mix constants. They are part of the workload definition: a
// change to any of them is a change to the benchmark.
const (
	poolRows   = 64 // distinct raw request rows per cohort (test split)
	hotRows    = 16 // the pool rows repeated requests draw from
	batchRows  = 64 // rows per item-id batch request
	batchEvery = 50 // every 50th classify request is a batch (classify workload)
)

// Every other row is a repeat of a hot row (a cache hit once warm); the
// rest are fresh. The mix's structure — which requests are batches,
// which rows repeat — is fixed, so a ladder step or a window sees the
// same shares whatever the seed; the seed picks the rows. At one batch
// in 50 requests the window's p99 falls inside the batches (near their
// median); at one in 10 it sat at their 90th percentile and spread by
// 45% between runs.

// cohort is one synthetic dataset: training rows (the initial rows
// plus any rows a workload appends later) and a pool of test rows that
// classify requests draw from.
//
// The rows, and their order, are those of the profile at its own fixed
// seed: training cost depends strongly on the table (PC/4 trains in
// 46-779 ms and OC/20 in 0.67-4.0 s across synth seeds 1-8) and even on
// its row order (PC/4: 55-110 ms across six permutations), so a
// workload seed that chose either would swamp every timing with the
// table's luck. The workload seed drives the classify traffic instead
// (see requestMix).
type cohort struct {
	// initial are the rows the dataset is created with; appends[i] are
	// the rows of the i-th append.
	initial *dataset.Matrix
	appends []*dataset.Matrix
	pool    *dataset.Matrix
}

// newCohort generates a profile's cohort with extra training rows for
// `appends` appends of `perAppend` rows (half of each class).
func newCohort(p synth.Profile, appends, perAppend int) (*cohort, error) {
	base1, base0 := p.Train1, p.Train0
	half := perAppend / 2
	p.Train1 += appends * half
	p.Train0 += appends * (perAppend - half)
	p.Test1, p.Test0 = poolRows/2, poolRows-poolRows/2
	train, test, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	// Generate lays rows out as all class-1 rows, then all class-0 rows.
	pick := func(from1, n1, from0, n0 int) *dataset.Matrix {
		var idx []int
		for i := 0; i < n1; i++ {
			idx = append(idx, from1+i)
		}
		for i := 0; i < n0; i++ {
			idx = append(idx, p.Train1+from0+i)
		}
		m := &dataset.Matrix{GeneNames: train.GeneNames, ClassNames: train.ClassNames}
		for _, i := range idx {
			m.Values = append(m.Values, train.Values[i])
			m.Labels = append(m.Labels, train.Labels[i])
		}
		return m
	}
	c := &cohort{initial: pick(0, base1, 0, base0), pool: test}
	for a := 0; a < appends; a++ {
		c.appends = append(c.appends, pick(base1+a*half, half, base0+a*(perAppend-half), perAppend-half))
	}
	return c, nil
}

// rowsUpTo returns the training matrix after the first n appends.
func (c *cohort) rowsUpTo(n int) *dataset.Matrix {
	m := &dataset.Matrix{GeneNames: c.initial.GeneNames, ClassNames: c.initial.ClassNames}
	m.Values = append(m.Values, c.initial.Values...)
	m.Labels = append(m.Labels, c.initial.Labels...)
	for _, a := range c.appends[:n] {
		m.Values = append(m.Values, a.Values...)
		m.Labels = append(m.Labels, a.Labels...)
	}
	return m
}

// wireRow is a labelled row as POST /v1/datasets and .../rows take it
// (serve.DatasetRow decodes but does not encode its label).
type wireRow struct {
	Values []float64 `json:"values"`
	Label  int       `json:"label"`
}

func wireRows(m *dataset.Matrix) []wireRow {
	rows := make([]wireRow, m.NumRows())
	for i := range rows {
		rows[i] = wireRow{Values: m.Values[i], Label: int(m.Labels[i])}
	}
	return rows
}

// createBody encodes a POST /v1/datasets request for m's rows.
func createBody(name string, m *dataset.Matrix) ([]byte, error) {
	return json.Marshal(struct {
		Name    string    `json:"name"`
		Classes []string  `json:"classes"`
		Genes   []string  `json:"genes"`
		Rows    []wireRow `json:"rows"`
	}{name, m.ClassNames, m.GeneNames, wireRows(m)})
}

// appendBody encodes a POST /v1/datasets/{name}/rows request.
func appendBody(m *dataset.Matrix) ([]byte, error) {
	return json.Marshal(struct {
		Rows []wireRow `json:"rows"`
	}{wireRows(m)})
}

// refModel is the in-process model a train job on m must reproduce:
// fit, transform and rcbt.TrainContext with the job's settings, and
// the Meta a train job stamps (minus createdAt).
func refModel(ctx context.Context, m *dataset.Matrix, cfg rcbt.Config, name string, version int) (*rcbt.Model, error) {
	dz, err := discretize.FitMatrix(m)
	if err != nil {
		return nil, err
	}
	d, err := dz.Transform(m)
	if err != nil {
		return nil, err
	}
	cls, err := rcbt.TrainContext(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	return &rcbt.Model{
		Classifier:  cls,
		Discretizer: dz,
		ClassNames:  d.ClassNames,
		NumItems:    d.NumItems(),
		Meta:        rcbt.Meta{Dataset: name, DatasetVersion: version, TrainRows: d.NumRows()},
	}, nil
}

// rowRef is one request row: a pool row, optionally with one selected
// gene's value moved into the next discretization interval, which makes
// it a row the prediction cache has not seen.
type rowRef struct {
	base  int
	gene  int // -1 for an unmodified (repeated) pool row
	value float64
}

// classifyReq is one classify request of a workload's mix: a single
// raw-values row, or a batch of item-id rows.
type classifyReq struct {
	batch bool
	rows  []rowRef
}

// requestMix builds a workload's classify requests against the model
// whose cuts dz holds.
type requestMix struct {
	pool      *dataset.Matrix
	dz        *discretize.Discretizer
	selected  []int
	itemStart map[int]int // first item id of each selected gene
	bodies    [][]byte    // pre-encoded {"values":[...]} per pool row
	offsets   [][]int     // per pool row: byte offset of each value, plus the end
	poolItems [][]int
	rng       *rand.Rand
	hot       []int // the pool rows repeated requests draw from
	pairs     []int // seeded order of (base, selected-gene) pairs for fresh rows
	next      int   // fresh rows drawn so far
	rows      int   // rows drawn so far
	reqs      int   // requests drawn so far
	batches   bool
}

func newRequestMix(pool *dataset.Matrix, dz *discretize.Discretizer, seed int64, batches bool) (*requestMix, error) {
	d, err := dz.Transform(pool)
	if err != nil {
		return nil, err
	}
	mx := &requestMix{
		pool:      pool,
		dz:        dz,
		selected:  dz.SelectedGenes(),
		itemStart: map[int]int{},
		poolItems: d.Rows,
		rng:       rand.New(rand.NewSource(seed)),
		batches:   batches,
	}
	if len(mx.selected) == 0 {
		return nil, fmt.Errorf("model selected no genes")
	}
	for it := len(d.Items) - 1; it >= 0; it-- {
		mx.itemStart[d.Items[it].Gene] = it
	}
	for _, vals := range pool.Values {
		var b bytes.Buffer
		off := make([]int, 0, len(vals)+1)
		b.WriteString(`{"values":[`)
		for g, v := range vals {
			if g > 0 {
				b.WriteByte(',')
			}
			off = append(off, b.Len())
			b.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
		}
		off = append(off, b.Len())
		b.WriteString("]}")
		mx.bodies = append(mx.bodies, b.Bytes())
		mx.offsets = append(mx.offsets, off)
	}
	mx.hot = mx.rng.Perm(len(pool.Values))[:hotRows]
	mx.pairs = mx.rng.Perm(len(pool.Values) * len(mx.selected))
	return mx, nil
}

// moved returns a value of gene g in the interval after v's (wrapping)
// and that interval's index.
func (mx *requestMix) moved(g int, v float64) (float64, int) {
	cuts := mx.dz.Cuts[g]
	k := 0
	for k < len(cuts) && v >= cuts[k] { // a value on a cut belongs to the right interval
		k++
	}
	k = (k + 1) % (len(cuts) + 1)
	switch {
	case k == 0:
		return cuts[0] - 1, k
	case k == len(cuts):
		return cuts[len(cuts)-1] + 1, k
	default:
		return (cuts[k-1] + cuts[k]) / 2, k
	}
}

// row draws one row: a repeated hot pool row or a fresh variant.
func (mx *requestMix) row() rowRef {
	mx.rows++
	if mx.rows%2 == 0 {
		return rowRef{base: mx.hot[mx.rng.Intn(hotRows)], gene: -1}
	}
	p := mx.pairs[mx.next%len(mx.pairs)]
	mx.next++
	r := rowRef{base: p / len(mx.selected), gene: mx.selected[p%len(mx.selected)]}
	r.value, _ = mx.moved(r.gene, mx.pool.Values[r.base][r.gene])
	return r
}

// draw returns the next request of the mix.
func (mx *requestMix) draw() classifyReq {
	mx.reqs++
	if mx.batches && mx.reqs%batchEvery == 0 {
		r := classifyReq{batch: true, rows: make([]rowRef, batchRows)}
		for i := range r.rows {
			r.rows[i] = mx.row()
		}
		return r
	}
	return classifyReq{rows: []rowRef{mx.row()}}
}

// items returns a row's discretized item ids.
func (mx *requestMix) items(r rowRef) []int {
	items := append([]int(nil), mx.poolItems[r.base]...)
	if r.gene < 0 {
		return items
	}
	_, k := mx.moved(r.gene, mx.pool.Values[r.base][r.gene])
	start := mx.itemStart[r.gene]
	for j, it := range items {
		if it >= start && it <= start+len(mx.dz.Cuts[r.gene]) {
			items[j] = start + k
		}
	}
	return items
}

// values returns a row's raw expression values.
func (mx *requestMix) values(r rowRef) []float64 {
	v := mx.pool.Values[r.base]
	if r.gene < 0 {
		return v
	}
	v = append([]float64(nil), v...)
	v[r.gene] = r.value
	return v
}

// body encodes a request: {"values":[...]} for a single row, a
// serve.BatchRequest of item ids for a batch.
func (mx *requestMix) body(r classifyReq) []byte {
	if r.batch {
		req := serve.BatchRequest{Rows: make([]serve.BatchRow, len(r.rows))}
		for i, ref := range r.rows {
			req.Rows[i].Items = mx.items(ref)
		}
		b, err := json.Marshal(req)
		if err != nil {
			// vetsuite:allow panic -- a slice of ints always encodes
			panic(err)
		}
		return b
	}
	ref := r.rows[0]
	src := mx.bodies[ref.base]
	if ref.gene < 0 {
		return src
	}
	off := mx.offsets[ref.base]
	end := off[ref.gene+1]
	if ref.gene+1 < len(off)-1 {
		end-- // keep the comma before the next value
	}
	out := make([]byte, 0, len(src)+24)
	out = append(out, src[:off[ref.gene]]...)
	out = strconv.AppendFloat(out, ref.value, 'g', -1, 64)
	return append(out, src[end:]...)
}
