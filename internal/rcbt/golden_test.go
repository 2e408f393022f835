package rcbt

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/lowerbound"
	"repro/internal/rules"
	"repro/internal/synth"
)

// goldenTrain pins, per training shape, an FNV-64a hash of every
// rank's lowerbound.FindAll output and one of the saved model envelope,
// recorded from the per-candidate-heap FindLB and the map-and-
// reflection fit that the arena and scratch kernels replaced.
var goldenTrain = []struct {
	profile  synth.Profile
	cfg      Config
	findAll  uint64
	envelope uint64
}{
	{synth.Scaled(synth.PC(), 4), Config{}, 0xdda3d8b10fa07fdf, 0xd9ed8d71ec0f2786},
	{synth.Scaled(synth.OC(), 20), Config{MinsupFrac: 0.93, Workers: 2}, 0x3242b743c92ce7e6, 0x8c4eb83bd2794053},
}

func hashInt(h hash.Hash64, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

// findAllHash replays TrainContext's lower-bound phase: mine each
// class, then per rank run FindAll on the rank's groups not seen at an
// earlier rank, hashing every returned rule.
func findAllHash(t *testing.T, d *dataset.Dataset, cfg Config) uint64 {
	t.Helper()
	cfg = cfg.withDefaults()
	var perClass []*core.Result
	for cls := 0; cls < d.NumClasses(); cls++ {
		n := 0
		for _, l := range d.Labels {
			if int(l) == cls {
				n++
			}
		}
		minsup := int(math.Ceil(cfg.MinsupFrac * float64(n)))
		mc := core.DefaultConfig(max(minsup, 1), cfg.K)
		mc.Workers = cfg.Workers
		res, err := core.MineContext(context.Background(), d, dataset.Label(cls), mc)
		if err != nil {
			t.Fatal(err)
		}
		perClass = append(perClass, res)
	}
	scores := lowerbound.DefaultItemScores(d)
	done := map[string]bool{}
	h := fnv.New64a()
	for j := 0; j < cfg.K; j++ {
		// Parallel mining may hand equal groups over as distinct
		// pointers or in another row order, so groups are keyed by
		// content and each rank is hashed in key order.
		var missing []*rules.Group
		var keys []string
		for _, res := range perClass {
			for _, gs := range res.PerRow {
				if j >= len(gs) {
					continue
				}
				k := fmt.Sprint(gs[j].Class, gs[j].Antecedent)
				if !done[k] {
					done[k] = true
					missing = append(missing, gs[j])
					keys = append(keys, k)
				}
			}
		}
		found := lowerbound.FindAll(d, missing, lowerbound.Config{NL: cfg.NL, ItemScore: scores})
		byGroup := map[string][]*rules.Rule{}
		for i, k := range keys {
			byGroup[k] = found[i]
		}
		sort.Strings(keys)
		hashInt(h, j)
		for _, k := range keys {
			rs := byGroup[k]
			h.Write([]byte(k))
			hashInt(h, len(rs))
			for _, r := range rs {
				hashInt(h, len(r.Antecedent))
				for _, it := range r.Antecedent {
					hashInt(h, it)
				}
				hashInt(h, int(r.Class))
				hashInt(h, r.Support)
				hashInt(h, int(math.Float64bits(r.Confidence)))
			}
		}
	}
	return h.Sum64()
}

// TestGoldenTrain checks FindLB's output and the saved model against
// the recorded hashes under one and eight procs.
func TestGoldenTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on full synth profiles")
	}
	for _, tc := range goldenTrain {
		train, _, err := synth.Generate(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			dz, err := discretize.FitMatrix(train)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			d, err := dz.Transform(train)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			fa := findAllHash(t, d, tc.cfg)
			c, err := TrainContext(context.Background(), d, tc.cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			m := &Model{Classifier: c, Discretizer: dz, ClassNames: d.ClassNames, NumItems: d.NumItems()}
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			eh := fnv.New64a()
			eh.Write(buf.Bytes())
			if fa != tc.findAll {
				t.Errorf("%s GOMAXPROCS=%d: FindAll hash %#x, want %#x", tc.profile.Name, procs, fa, tc.findAll)
			}
			if got := eh.Sum64(); got != tc.envelope {
				t.Errorf("%s GOMAXPROCS=%d: envelope hash %#x, want %#x", tc.profile.Name, procs, got, tc.envelope)
			}
		}
	}
}
