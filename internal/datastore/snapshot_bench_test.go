package datastore

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

var (
	pc4Once  sync.Once
	pc4Train *dataset.Matrix
	pc4Err   error
)

// pc4 returns the PC/4 synth training matrix (102 rows × 3,150 genes),
// the table shape of the refresh benchmark.
func pc4(tb testing.TB) *dataset.Matrix {
	tb.Helper()
	pc4Once.Do(func() { pc4Train, _, pc4Err = synth.Generate(synth.Scaled(synth.PC(), 4)) })
	if pc4Err != nil {
		tb.Fatal(pc4Err)
	}
	return pc4Train
}

// createPC4 returns a store over dir holding the PC/4 table as dataset
// "pc" version 1.
func createPC4(b *testing.B, dir string) (*Store, *Snapshot) {
	b.Helper()
	pc := pc4(b)
	s, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := s.Create("pc", pc.ClassNames, pc.GeneNames, pc.Values, pc.Labels)
	if err != nil {
		b.Fatal(err)
	}
	return s, snap
}

// reportFile reports the size of version 1's snapshot file and the
// wall time per operation in milliseconds.
func reportFile(b *testing.B, dir string) {
	b.Helper()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
	files, _ := filepath.Glob(filepath.Join(dir, "pc", "v000001.*"))
	if len(files) == 1 {
		if info, err := os.Stat(files[0]); err == nil {
			b.ReportMetric(float64(info.Size())/1e6, "file-MB")
		}
	}
}

// BenchmarkPersistPC4 times writing one PC/4 snapshot file: encode,
// staged write and rename.
func BenchmarkPersistPC4(b *testing.B) {
	dir := b.TempDir()
	s, snap := createPC4(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.persist(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportFile(b, dir)
}

// BenchmarkRecoverPC4 times opening a store over one PC/4 snapshot:
// read, decode, rebuild the discretizer from its cuts and transform.
func BenchmarkRecoverPC4(b *testing.B) {
	dir := b.TempDir()
	createPC4(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get("pc"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportFile(b, dir)
}
