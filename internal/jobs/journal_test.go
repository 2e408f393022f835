package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/rcbt"
)

// TestSaveModelConcurrentSameName saves distinct models under one name
// from many goroutines at once, as an auto-refresh beside a manual
// train of the same dataset does. Every save must succeed and the file
// left behind must be exactly one of the models, never a mix of two.
func TestSaveModelConcurrentSameName(t *testing.T) {
	d, _ := dataset.RunningExample()
	cls, err := rcbt.Train(d, rcbt.Config{K: 2, NL: 3, MinsupFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	models := make([]*rcbt.Model, writers)
	for i := range models {
		// Envelopes of different sizes, so a file one writer truncated
		// and another half rewrote cannot parse as either.
		genes := make([]string, 500*(i+1))
		cuts := make([][]float64, len(genes))
		for g := range genes {
			genes[g] = fmt.Sprintf("m%d-g%d", i, g)
			cuts[g] = []float64{float64(g) + 0.5, float64(g) + 1.25}
		}
		dz, err := discretize.FromCuts(d.ClassNames, genes, cuts)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = &rcbt.Model{
			Classifier:  cls,
			Discretizer: dz,
			ClassNames:  d.ClassNames,
			NumItems:    d.NumItems(),
			Meta:        rcbt.Meta{Dataset: fmt.Sprintf("writer-%d", i), TrainRows: d.NumRows()},
		}
	}
	want := make([]*rcbt.Model, writers)
	for i, mod := range models {
		var buf bytes.Buffer
		if err := mod.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if want[i], err = rcbt.LoadModel(&buf); err != nil {
			t.Fatal(err)
		}
	}

	m := openTest(t, Config{})
	path := filepath.Join(m.modelsDir, "shared.json")
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for i := range models {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = m.saveModel(path, models[i])
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: writer %d: %v", round, i, err)
			}
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rcbt.LoadModel(f)
		f.Close()
		if err != nil {
			t.Fatalf("round %d: saved model does not load: %v", round, err)
		}
		match := false
		for _, w := range want {
			if reflect.DeepEqual(got, w) {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("round %d: saved model (%s) equals none of the models written", round, got.Meta.Dataset)
		}
	}
	if stray, _ := filepath.Glob(filepath.Join(m.modelsDir, "*.tmp")); len(stray) != 0 {
		t.Fatalf("staging files left behind: %v", stray)
	}
}

// TestRecoverDeletesStrayStaging plants the staging debris of writes a
// crash interrupted, in the journal and model directories, and requires
// a restarted manager to delete it while keeping the complete files.
func TestRecoverDeletesStrayStaging(t *testing.T) {
	dir := t.TempDir()
	m1 := openTest(t, Config{DataDir: dir})
	d, _ := dataset.RunningExample()
	rec, err := m1.Submit(Spec{Kind: KindTrain, ModelName: "kept", K: 2, NL: 3, MinsupFrac: 0.5},
		Data{Dataset: d, Name: "running-example"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m1, rec.ID); got.State != StateSucceeded {
		t.Fatalf("train job: %s (%s)", got.State, got.Error)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	stray := []string{
		filepath.Join(dir, "models", "kept.json.123.tmp"),
		filepath.Join(dir, "models", "kept.json.tmp"), // the old fixed staging name
		filepath.Join(dir, "jobs", rec.ID+".json.456.tmp"),
	}
	for _, p := range stray {
		if err := os.WriteFile(p, []byte(`{"half":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m2 := openTest(t, Config{DataDir: dir})
	for _, p := range stray {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stray staging file %s survived recovery: %v", filepath.Base(p), err)
		}
	}
	if got, err := m2.Get(rec.ID); err != nil || got.State != StateSucceeded {
		t.Fatalf("journaled job after recovery: %+v, %v", got, err)
	}
	f, err := os.Open(filepath.Join(dir, "models", "kept.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := rcbt.LoadModel(f); err != nil {
		t.Fatalf("model after recovery: %v", err)
	}
}
