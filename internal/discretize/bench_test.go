package discretize

import (
	"testing"

	"repro/internal/synth"
)

// BenchmarkFitMatrixPC4 fits the PC/4 training matrix (102 rows ×
// 3,150 genes), the shape a streaming append refits.
func BenchmarkFitMatrixPC4(b *testing.B) {
	train, _, err := synth.Generate(synth.Scaled(synth.PC(), 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitMatrix(train); err != nil {
			b.Fatal(err)
		}
	}
}
