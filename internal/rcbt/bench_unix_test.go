//go:build unix

package rcbt

import (
	"context"
	"fmt"
	"math"
	"syscall"
	"testing"
	"time"

	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/synth"
)

// BenchmarkTrainOC20 trains RCBT on the OC/20 training set at
// minsupFrac 0.9, where mining is nearly all of a train, sequentially
// and with two mining workers. Besides ns/op it reports cpu-ms/op, the
// process's user+system CPU per train from getrusage (parallel mining
// spends more CPU than wall-clock time), and nodes/op, the enumeration
// nodes of all mined classes, so a change to the mining layer can be
// judged without the end-to-end service benchmark:
//
//	go test -run '^$' -bench TrainOC20 -count 5 ./internal/rcbt/
func BenchmarkTrainOC20(b *testing.B) {
	train, _, err := synth.Generate(synth.Scaled(synth.OC(), 20))
	if err != nil {
		b.Fatal(err)
	}
	dz, err := discretize.FitMatrix(train)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dz.Transform(train)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// A stride no run reaches leaves only the final snapshot of
			// each mined class: its node total.
			var nodes int64
			cfg := Config{
				MinsupFrac:    0.9,
				Workers:       workers,
				Progress:      func(s engine.ProgressSnapshot) { nodes += s.Nodes },
				ProgressEvery: math.MaxInt,
			}
			b.ResetTimer()
			cpu0 := processCPU(b)
			for i := 0; i < b.N; i++ {
				if _, err := TrainContext(context.Background(), d, cfg); err != nil {
					b.Fatal(err)
				}
			}
			cpu := processCPU(b) - cpu0
			b.ReportMetric(float64(cpu.Milliseconds())/float64(b.N), "cpu-ms/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}

// processCPU returns the user+system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
