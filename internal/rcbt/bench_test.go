package rcbt

import (
	"context"
	"testing"

	"repro/internal/discretize"
	"repro/internal/synth"
)

// BenchmarkTrainPC4 trains RCBT with the paper's defaults on the PC/4
// training set, where FindLB outweighs mining.
func BenchmarkTrainPC4(b *testing.B) {
	train, _, err := synth.Generate(synth.Scaled(synth.PC(), 4))
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainContext(context.Background(), d, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
