// Package lowerbound implements FindLB (Figure 5): breadth-first search
// for the nl shortest lower-bound rules of a rule group, with items
// ranked by the discriminant power of their genes and containment tests
// done on row bitmaps.
//
// A lower bound of group G (upper bound A, support set R) is a minimal
// A' ⊆ A with R(A') = R (Lemma 5.1). Equivalently — because every row
// in R contains all of A — A' must "kill" every row outside R: each
// outside row must miss at least one item of A', and no item of A' may
// be redundant. Lower bounds are therefore exactly the minimal hitting
// sets of the outside rows' complements, which is how the search is
// implemented.
package lowerbound

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/stats"
)

// Config controls the search.
type Config struct {
	// NL is the number of lower bounds to return (FindLB's nl).
	NL int
	// MaxLen caps candidate antecedent length; 0 means no cap. The
	// paper observes real lower bounds have 1-5 items.
	MaxLen int
	// MaxCandidates bounds the number of candidates examined, so
	// adversarial groups cannot blow up classifier construction;
	// 0 means the default of 1<<20.
	MaxCandidates int
	// ItemScore ranks items for the breadth-first order (higher =
	// examined earlier, Step 1 of FindLB). When nil, items are scored by
	// the information gain of their presence against the class labels.
	ItemScore []float64
}

// Find returns up to cfg.NL shortest lower-bound rules of group g over
// dataset d, most discriminant item combinations first.
func Find(d *dataset.Dataset, g *rules.Group, cfg Config) []*rules.Rule {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.find(d, g, cfg)
}

// scratchPool keeps warmed scratches between Find and FindAll calls: an
// RCBT train runs FindAll once per rank, and the BFS levels of a wide
// group reach megabytes that would otherwise be regrown every time.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratch is one FindLB worker's memory, reused across Find calls: every
// buffer keeps its capacity, so a warmed scratch searches without
// allocating and only the emitted rules are fresh. Sets live in flat
// word arenas (bitset.View), w = bitset.Words(rows) words per set. find
// rewrites every buffer it reads, so no state carries between calls.
type scratch struct {
	ranked    []int        // the upper bound's items, by descending score
	classOf   []int32      // per ranked item: its kill class, or -1
	killWords []uint64     // class-major kill sets, w words each
	kills     []bitset.Set // views over killWords
	hashes    []uint64     // per class: Hash64 of its kill set
	slots     []int32      // open-addressing table: class+1 by hash, 0 = empty
	itemStart []int32      // class c's items are items[itemStart[c]:itemStart[c+1]]
	items     []int        // class members in rank order
	cursor    []int32      // next free slot per class while filling items
	outside   []uint64     // rows outside the group's support set
	minCover  []uint64     // isMinimal's reused cover
	cur, next level        // double-buffered BFS levels
	choice    []int        // emit's substitution odometer
	ants      []int        // emitted antecedents, back to back
	antEnd    []int        // end offset of each emitted antecedent in ants
}

// level holds one BFS level's candidates, all of the same size: their
// class indices and kill-set unions, candidate-major.
type level struct {
	idx   []int32  // size indices per candidate
	cover []uint64 // w words per candidate
}

// resize returns b with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

func (s *scratch) find(d *dataset.Dataset, g *rules.Group, cfg Config) []*rules.Rule {
	if cfg.NL <= 0 {
		return nil
	}
	budget := cfg.MaxCandidates
	if budget <= 0 {
		budget = 1 << 20
	}
	s.ants, s.antEnd = s.ants[:0], s.antEnd[:0]

	// Outside rows: rows not in the group's support set.
	n := d.NumRows()
	w := bitset.Words(n)
	s.outside = resize(s.outside, w)
	outside := bitset.View(s.outside, n)
	outside.Fill()
	outside.DifferenceWith(g.Rows)

	// Degenerate group covering every row: the empty rule is its only
	// lower bound.
	if outside.IsEmpty() {
		s.antEnd = append(s.antEnd, 0)
		return s.rules(g)
	}

	// Step 1: rank the upper bound's items by descending score.
	score := cfg.ItemScore
	if score == nil {
		score = DefaultItemScores(d)
	}
	s.ranked = append(s.ranked[:0], g.Antecedent...)
	slices.SortStableFunc(s.ranked, func(a, b int) int {
		switch {
		case score[a] > score[b]:
			return -1
		case score[a] < score[b]:
			return 1
		}
		return 0
	})

	nc := s.groupKills(d, n, w)
	s.minCover = resize(s.minCover, w)
	s.choice = resize(s.choice, nc) // a minimal cover holds each class at most once
	s.kills = s.kills[:0]
	for c := 0; c < nc; c++ {
		s.kills = append(s.kills, bitset.View(s.killWords[c*w:(c+1)*w], n))
	}

	// Step 2: BFS over ranked class combinations by increasing size. A
	// candidate is a lower bound iff its kill union covers all outside
	// rows and removing any single class breaks coverage (minimality).
	s.cur.idx = s.cur.idx[:0]
	for c := 0; c < nc; c++ {
		s.cur.idx = append(s.cur.idx, int32(c))
	}
	s.cur.cover = append(s.cur.cover[:0], s.killWords[:nc*w]...)
	examined := 0
	for size := 1; len(s.cur.idx) > 0 && len(s.antEnd) < cfg.NL; size++ {
		if cfg.MaxLen > 0 && size > cfg.MaxLen {
			break
		}
		s.next.idx, s.next.cover = s.next.idx[:0], s.next.cover[:0]
		for c := 0; c < len(s.cur.idx)/size; c++ {
			examined++
			if examined > budget {
				return s.rules(g)
			}
			if s.visit(s.cur.idx[c*size:(c+1)*size], s.cur.cover[c*w:(c+1)*w], &outside, cfg.NL) {
				return s.rules(g)
			}
		}
		s.cur, s.next = s.next, s.cur
	}
	return s.rules(g)
}

// groupKills fills the kill classes of the ranked items and returns
// their count. An item's kill set is the outside rows it misses.
// Correlated gene intervals share kill sets, and any two same-kill
// items are interchangeable in every cover, so the search runs over one
// representative per class and substitutions are expanded afterwards.
// This is what keeps FindLB tractable on block-correlated expression
// data. Classes are numbered in order of their best-ranked member, and
// each class lists its members in rank order.
func (s *scratch) groupKills(d *dataset.Dataset, n, w int) int {
	mask := 8
	for mask < 2*len(s.ranked) {
		mask <<= 1
	}
	s.slots = resize(s.slots, mask)
	clear(s.slots)
	mask--
	s.classOf = s.classOf[:0]
	s.hashes = s.hashes[:0]
	s.killWords = s.killWords[:0]
	nc := 0
	for _, it := range s.ranked {
		// Build the kill set in the next class's slot; keep the slot
		// only if the set is new.
		s.killWords = append(s.killWords, s.outside...)
		k := bitset.View(s.killWords[nc*w:], n)
		k.DifferenceWith(d.ItemRows(it))
		if k.IsEmpty() {
			s.killWords = s.killWords[:nc*w]
			s.classOf = append(s.classOf, -1) // kills nothing: never part of a minimal cover
			continue
		}
		h := k.Hash64()
		ci := int32(-1)
		i := int(h) & mask
		for ; s.slots[i] != 0; i = (i + 1) & mask {
			c := s.slots[i] - 1
			if s.hashes[c] == h {
				other := bitset.View(s.killWords[int(c)*w:int(c+1)*w], n)
				if other.Equal(&k) {
					ci = c
					break
				}
			}
		}
		if ci < 0 {
			ci = int32(nc)
			s.slots[i] = ci + 1
			s.hashes = append(s.hashes, h)
			nc++
		} else {
			s.killWords = s.killWords[:nc*w]
		}
		s.classOf = append(s.classOf, ci)
	}

	s.itemStart = resize(s.itemStart, nc+1)
	clear(s.itemStart)
	for _, c := range s.classOf {
		if c >= 0 {
			s.itemStart[c+1]++
		}
	}
	for c := 0; c < nc; c++ {
		s.itemStart[c+1] += s.itemStart[c]
	}
	s.items = resize(s.items, int(s.itemStart[nc]))
	s.cursor = append(s.cursor[:0], s.itemStart[:nc]...)
	for r, c := range s.classOf {
		if c >= 0 {
			s.items[s.cursor[c]] = s.ranked[r]
			s.cursor[c]++
		}
	}
	return nc
}

// visit examines one candidate — class indices idx, kill union in
// coverWords — and appends its children to the next level. It reports
// whether the nl quota is filled.
//
//vet:allocfree
func (s *scratch) visit(idx []int32, coverWords []uint64, outside *bitset.Set, nl int) bool {
	cover := bitset.View(coverWords, outside.Len())
	if cover.ContainsAll(outside) {
		if s.isMinimal(idx, outside) {
			return s.emit(idx, nl)
		}
		return false // supersets of a cover are never minimal
	}
	next := &s.next
	for j := int(idx[len(idx)-1]) + 1; j < len(s.kills); j++ {
		// If kills[j] ⊆ cover, class j stays redundant in every extension
		// of the candidate — no minimal cover there. If kills[j] ⊇ cover,
		// every class of the candidate becomes redundant once j is added;
		// the minimal covers through j are reached from shorter prefixes
		// containing j instead. Both prune.
		kj := &s.kills[j]
		if cover.ContainsAll(kj) || kj.ContainsAll(&cover) {
			continue
		}
		next.idx = append(next.idx, idx...)
		next.idx = append(next.idx, int32(j))
		next.cover = append(next.cover, coverWords...)
		child := bitset.View(next.cover[len(next.cover)-len(coverWords):], outside.Len())
		child.UnionWith(kj)
	}
	return false
}

// isMinimal reports whether removing any single class breaks coverage.
//
//vet:allocfree
func (s *scratch) isMinimal(idx []int32, outside *bitset.Set) bool {
	if len(idx) == 1 {
		return true
	}
	cover := bitset.View(s.minCover, outside.Len())
	for drop := range idx {
		cover.Clear()
		for i, j := range idx {
			if i != drop {
				cover.UnionWith(&s.kills[j])
			}
		}
		if cover.ContainsAll(outside) {
			return false
		}
	}
	return true
}

// emit expands a minimal representative cover into concrete lower
// bounds by substituting class members in rank order (the last class
// varies fastest), until nl rules are recorded. It reports whether the
// nl quota is filled.
//
//vet:allocfree
func (s *scratch) emit(idx []int32, nl int) bool {
	choice := s.choice[:len(idx)]
	clear(choice)
	for {
		start := len(s.ants)
		for i, c := range idx {
			s.ants = append(s.ants, s.items[int(s.itemStart[c])+choice[i]])
		}
		slices.Sort(s.ants[start:])
		s.antEnd = append(s.antEnd, len(s.ants))
		if len(s.antEnd) >= nl {
			return true
		}
		pos := len(idx) - 1
		for ; pos >= 0; pos-- {
			c := idx[pos]
			if choice[pos]++; choice[pos] < int(s.itemStart[c+1]-s.itemStart[c]) {
				break
			}
			choice[pos] = 0
		}
		if pos < 0 {
			return false
		}
	}
}

// rules materializes the recorded antecedents as g's lower-bound rules:
// three allocations however many rules there are.
func (s *scratch) rules(g *rules.Group) []*rules.Rule {
	if len(s.antEnd) == 0 {
		return nil
	}
	ants := slices.Clone(s.ants)
	rs := make([]rules.Rule, len(s.antEnd))
	out := make([]*rules.Rule, len(s.antEnd))
	start := 0
	for i, end := range s.antEnd {
		var ant []int
		if end > start {
			ant = ants[start:end:end]
		}
		rs[i] = rules.Rule{Antecedent: ant, Class: g.Class, Support: g.Support, Confidence: g.Confidence}
		out[i] = &rs[i]
		start = end
	}
	return out
}

// DefaultItemScores computes per-item information gain of presence
// versus class — the discrete analogue of the paper's gene entropy
// score, used when the caller does not supply Config.ItemScore. Callers
// issuing many Find calls on one dataset should compute this once and
// pass it explicitly; it costs O(items × rows).
func DefaultItemScores(d *dataset.Dataset) []float64 {
	scores := make([]float64, d.NumItems())
	n := d.NumRows()
	k := d.NumClasses()
	classCount := make([]int, k)
	for _, l := range d.Labels {
		classCount[int(l)]++
	}
	baseH := stats.Entropy(classCount)
	present := make([]int, k)
	absent := make([]int, k)
	for i := 0; i < d.NumItems(); i++ {
		clear(present)
		d.ItemRows(i).ForEach(func(r int) bool {
			present[int(d.Labels[r])]++
			return true
		})
		pn := 0
		for c := range present {
			absent[c] = classCount[c] - present[c]
			pn += present[c]
		}
		if pn == 0 || pn == n {
			scores[i] = 0
			continue
		}
		h := float64(pn)/float64(n)*stats.Entropy(present) +
			float64(n-pn)/float64(n)*stats.Entropy(absent)
		scores[i] = baseH - h
	}
	return scores
}

// FindAll runs Find for every group concurrently (bounded by
// GOMAXPROCS workers) and returns results in group order, so callers
// stay deterministic. Groups share the dataset read-only.
func FindAll(d *dataset.Dataset, groups []*rules.Group, cfg Config) [][]*rules.Rule {
	out := make([][]*rules.Rule, len(groups))
	if len(groups) == 0 {
		return out
	}
	// Warm the dataset's inverted index and the default scores before
	// fan-out: both are lazily built and must not race.
	if d.NumItems() > 0 {
		d.ItemRows(0)
	}
	if cfg.ItemScore == nil {
		cfg.ItemScore = DefaultItemScores(d)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(groups) {
		workers = len(groups)
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := scratchPool.Get().(*scratch)
			defer scratchPool.Put(s)
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(groups) {
					return
				}
				out[i] = s.find(d, groups[i], cfg)
			}
		}()
	}
	wg.Wait()
	return out
}
