package discretize

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/synth"
)

// goldenCuts pins an FNV-64a hash of every gene's cut points (count,
// then Float64bits of each cut) for each synth profile's training
// matrix, recorded from the map-and-reflection implementation the
// scratch kernel replaced. Any change to the fit that moves a single
// bit of a single cut fails here.
var goldenCuts = map[string]uint64{
	"ALL/4":  0x700876fe19f1bd4f,
	"LC/4":   0x3518f4965e705fda,
	"OC/4":   0x58861734c31b2302,
	"PC/4":   0xe35da430e5db9082,
	"ALL/20": 0xded4c0cc8de645f9,
	"LC/20":  0xe9aecabc25de7b9a,
	"OC/20":  0x3de954d5af8c04be,
	"PC/20":  0xe6e2eed828bd3437,
}

// cutsHash hashes the per-gene cut lists in gene order.
func cutsHash(cuts [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, cs := range cuts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(cs)))
		h.Write(buf[:])
		for _, c := range cs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestGoldenCuts fits every synth profile at scales 4 and 20 under one
// and eight procs: the per-gene fan-out must not move a bit.
func TestGoldenCuts(t *testing.T) {
	if testing.Short() {
		t.Skip("fits full synth profiles")
	}
	for _, scale := range []int{4, 20} {
		for _, p := range synth.Profiles() {
			p = synth.Scaled(p, scale)
			train, _, err := synth.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 8} {
				prev := runtime.GOMAXPROCS(procs)
				dz, err := FitMatrix(train)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if got := cutsHash(dz.Cuts); got != goldenCuts[p.Name] {
					t.Errorf("%s GOMAXPROCS=%d: cuts hash %#x, want %#x", p.Name, procs, got, goldenCuts[p.Name])
				}
			}
		}
	}
}
