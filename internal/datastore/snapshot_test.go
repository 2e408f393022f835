package datastore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataset"
	"repro/internal/discretize"
)

// sameBits reports whether two matrices hold bit-identical values
// (reflect.DeepEqual would equate 0 with -0).
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return false
		}
		for g := range a[r] {
			if math.Float64bits(a[r][g]) != math.Float64bits(b[r][g]) {
				return false
			}
		}
	}
	return true
}

// assertSameSnapshot requires got to be want as recovered from disk:
// bit-identical values and cuts, equal item dataset, metadata intact.
func assertSameSnapshot(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Name != want.Name || got.Version != want.Version || !got.CreatedAt.Equal(want.CreatedAt) {
		t.Fatalf("recovered %s v%d @%v, want %s v%d @%v", got.Name, got.Version, got.CreatedAt,
			want.Name, want.Version, want.CreatedAt)
	}
	if got.Refresh != want.Refresh {
		t.Fatalf("v%d refresh stats %+v, want %+v", got.Version, got.Refresh, want.Refresh)
	}
	gm, wm := got.Matrix, want.Matrix
	if !sameBits(gm.Values, wm.Values) {
		t.Fatalf("v%d values are not bit-identical", got.Version)
	}
	if !reflect.DeepEqual(gm.Labels, wm.Labels) || !reflect.DeepEqual(gm.GeneNames, wm.GeneNames) ||
		!reflect.DeepEqual(gm.ClassNames, wm.ClassNames) {
		t.Fatalf("v%d labels or names diverge", got.Version)
	}
	if len(got.Discretizer.Cuts) != len(want.Discretizer.Cuts) || !sameBits(got.Discretizer.Cuts, want.Discretizer.Cuts) {
		t.Fatalf("v%d cuts are not bit-identical:\n got %v\nwant %v", got.Version, got.Discretizer.Cuts, want.Discretizer.Cuts)
	}
	gd, wd := got.Dataset, want.Dataset
	if !reflect.DeepEqual(gd.Items, wd.Items) || !reflect.DeepEqual(gd.Rows, wd.Rows) ||
		!reflect.DeepEqual(gd.Labels, wd.Labels) || !reflect.DeepEqual(gd.ClassNames, wd.ClassNames) {
		t.Fatalf("v%d item dataset diverges", got.Version)
	}
}

// specialValues are the floats a decimal round trip is most likely to
// get wrong.
var specialValues = []float64{
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072009e-308, // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	math.MaxFloat64 / 1.5, -math.MaxFloat64 / 1.5,
	0.1, 1.0 / 3,
}

// roundTrip creates dataset "q" from values[:initial], appends the
// rest, and requires a store reopened over the same directory to
// recover both versions bit-identical.
func roundTrip(t *testing.T, genes []string, values [][]float64, labels []dataset.Label, initial int) error {
	t.Helper()
	dir := t.TempDir()
	s := openStore(t, dir, 0)
	v1, err := s.Create("q", []string{"x", "y"}, genes, values[:initial], labels[:initial])
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	v2, err := s.Append("q", values[initial:], labels[initial:])
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	s2 := openStore(t, dir, 0)
	for _, want := range []*Snapshot{v1, v2} {
		got, err := s2.GetVersion("q", want.Version)
		if err != nil {
			return fmt.Errorf("recover v%d: %w", want.Version, err)
		}
		assertSameSnapshot(t, got, want)
	}
	return nil
}

// TestSnapshotRoundTripBits is the format's round-trip property: over
// random matrices mixing special floats with PC/4 expression values,
// every persisted version recovers with bit-identical values and cuts
// and an equal item dataset.
func TestSnapshotRoundTripBits(t *testing.T) {
	// Classes split between values whose midpoint overflows float64.
	big := math.MaxFloat64 / 1.5
	if err := roundTrip(t, []string{"hi", "lo"}, [][]float64{
		{big, -math.MaxFloat64}, {big, -math.MaxFloat64}, {math.MaxFloat64, -big},
		{big, -math.MaxFloat64}, {math.MaxFloat64, -big}, {math.MaxFloat64, -big},
	}, []dataset.Label{0, 0, 1, 0, 1, 1}, 3); err != nil {
		t.Fatal(err)
	}

	pc := pc4(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		genes := 1 + rng.Intn(6)
		rows := 2 + rng.Intn(20)
		geneNames := make([]string, genes)
		for g := range geneNames {
			geneNames[g] = string(rune('a' + g))
		}
		values := make([][]float64, rows)
		labels := make([]dataset.Label, rows)
		for r := range values {
			values[r] = make([]float64, genes)
			for g := range values[r] {
				if rng.Intn(3) == 0 {
					values[r][g] = specialValues[rng.Intn(len(specialValues))]
				} else {
					values[r][g] = pc.Values[rng.Intn(len(pc.Values))][rng.Intn(len(pc.GeneNames))]
				}
			}
			labels[r] = dataset.Label(rng.Intn(2))
		}
		if err := roundTrip(t, geneNames, values, labels, 1+rng.Intn(rows-1)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRoundTripPC4 round-trips a whole PC/4 table.
func TestSnapshotRoundTripPC4(t *testing.T) {
	pc := pc4(t)
	dir := t.TempDir()
	want, err := openStore(t, dir, 0).Create("pc", pc.ClassNames, pc.GeneNames, pc.Values, pc.Labels)
	if err != nil {
		t.Fatal(err)
	}
	got, err := openStore(t, dir, 0).Get("pc")
	if err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, got, want)
	info, err := os.Stat(filepath.Join(dir, "pc", "v000001.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if body := int64(8 * len(pc.Values) * len(pc.GeneNames)); info.Size() <= body {
		t.Fatalf("snapshot of %d bytes cannot hold a %d-byte matrix", info.Size(), body)
	}
	// Recovered rows share one backing array but cannot grow into
	// each other.
	row := got.Matrix.Values[0]
	if cap(row) != len(row) {
		t.Fatalf("recovered row capacity %d, want %d", cap(row), len(row))
	}
}

// twoVersionStore returns a store directory holding versions 1 and 2
// of dataset "d", and the bytes of v2's snapshot file.
func twoVersionStore(t *testing.T) (dir string, v2 []byte) {
	t.Helper()
	dir = t.TempDir()
	s := openStore(t, dir, 0)
	m := sepMatrix(t)
	if _, err := s.Create("d", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("d", [][]float64{{6, 1}}, []dataset.Label{0}); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join(dir, "d", "v000002.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, v2
}

// TestSnapshotDamageFallsBack truncates v2's file at every length and
// flips every byte of it in turn — magic, header, body and checksum —
// and requires each damaged file to be skipped with recovery landing on
// the intact v1.
func TestSnapshotDamageFallsBack(t *testing.T) {
	dir, v2 := twoVersionStore(t)
	path := filepath.Join(dir, "d", "v000002.snap")
	hlen := int(binary.LittleEndian.Uint32(v2[len(snapshotMagic):]))
	region := func(i int) string {
		switch {
		case i < len(snapshotMagic):
			return "magic"
		case i < snapshotPrefix:
			return "header length"
		case i < snapshotPrefix+hlen:
			return "header"
		case i < len(v2)-snapshotCRC:
			return "body"
		}
		return "checksum"
	}
	recoversV1 := func(what string) {
		t.Helper()
		got, err := openStore(t, dir, 0).Get("d")
		if err != nil {
			t.Fatalf("%s: recover: %v", what, err)
		}
		if got.Version != 1 {
			t.Fatalf("%s: recovered v%d, want v1", what, got.Version)
		}
	}
	for n := 0; n < len(v2); n++ {
		if err := os.WriteFile(path, v2[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		recoversV1(fmt.Sprintf("truncated to %d bytes", n))
	}
	seen := map[string]bool{}
	for i := range v2 {
		damaged := bytes.Clone(v2)
		damaged[i] ^= 0x5a
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		seen[region(i)] = true
		recoversV1(fmt.Sprintf("byte %d (%s) flipped", i, region(i)))
	}
	for _, r := range []string{"magic", "header length", "header", "body", "checksum"} {
		if !seen[r] {
			t.Fatalf("no byte of the %s was damaged", r)
		}
	}
}

// reseal replaces a file's checksum trailer with the checksum of its
// other bytes, so a framing fault is not caught by the checksum alone.
func reseal(data []byte) []byte {
	if len(data) < snapshotCRC {
		return data
	}
	end := len(data) - snapshotCRC
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[end:], crc32.Checksum(out[:end], castagnoli))
	return out
}

// TestDecodeSnapshotRejectsBadFraming checks the framing checks behind
// the checksum: with a valid checksum, a wrong magic, an overrunning
// header length, a body one value short or long, or a header for
// another dataset or version is still rejected.
func TestDecodeSnapshotRejectsBadFraming(t *testing.T) {
	_, v2 := twoVersionStore(t)
	if _, err := decodeSnapshot(v2, "d", 2); err != nil {
		t.Fatalf("intact file: %v", err)
	}
	end := len(v2) - snapshotCRC
	withBody := func(delta int) []byte {
		out := append([]byte(nil), v2[:end]...)
		if delta < 0 {
			out = out[:len(out)+delta]
		} else {
			out = append(out, make([]byte, delta)...)
		}
		return reseal(append(out, 0, 0, 0, 0))
	}
	badMagic := bytes.Clone(v2)
	badMagic[0] = 'X'
	overrun := bytes.Clone(v2)
	binary.LittleEndian.PutUint32(overrun[len(snapshotMagic):], uint32(len(v2)))
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"bad magic", reseal(badMagic)},
		{"header overruns file", reseal(overrun)},
		{"body one value short", withBody(-8)},
		{"body one value long", withBody(8)},
		{"body one byte short", withBody(-1)},
	} {
		if _, err := decodeSnapshot(c.data, "d", 2); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := decodeSnapshot(v2, "other", 2); err == nil {
		t.Error("file of another dataset accepted")
	}
	if _, err := decodeSnapshot(v2, "d", 3); err == nil {
		t.Error("file of another version accepted")
	}
}

// copyDir copies a testdata tree into a fresh temp dir, so recovery's
// deletions never touch the checked-in files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// legacyMatrix is the table the checked-in schema-1 snapshots of
// testdata/schema1/legacy hold: version 1 is its first eight rows,
// version 2 all ten. They were written by the JSON snapshot writer
// this format replaced.
func legacyMatrix() *dataset.Matrix {
	return &dataset.Matrix{
		GeneNames:  []string{"g0", "g1", "g2", "g3"},
		ClassNames: []string{"ALL", "AML"},
		Values: [][]float64{
			{1.5, 0.1, math.Copysign(0, -1), math.MaxFloat64},
			{2.25, 0.2, 5e-324, -math.MaxFloat64},
			{3.125, 0.30000000000000004, -5e-324, math.Pi},
			{4.0625, 1.0 / 3, 2.2250738585072014e-308, math.E},
			{10.5, 2.0 / 3, 1e308, math.SmallestNonzeroFloat64},
			{11.75, 0.7, -1e308, 1e-10},
			{12.875, 1e-300, 123456789.123, -7.5},
			{13.9375, -1e-300, 6.02214076e23, 42},
			{5.5, 0.25, 3e-310, 2.5},
			{9.0, 0.9, -2e-320, -3.75},
		},
		Labels: []dataset.Label{0, 0, 0, 0, 1, 1, 1, 1, 0, 1},
	}
}

// legacyWant is version v of the checked-in schema-1 dataset as a
// from-scratch fit and transform of its rows, with the metadata the
// files recorded.
func legacyWant(t *testing.T, v int) *Snapshot {
	t.Helper()
	full := legacyMatrix()
	rows := map[int]int{1: 8, 2: 10}[v]
	m := &dataset.Matrix{
		GeneNames: full.GeneNames, ClassNames: full.ClassNames,
		Values: full.Values[:rows], Labels: full.Labels[:rows],
	}
	snap, err := buildFull("legacy", v, m)
	if err != nil {
		t.Fatal(err)
	}
	created := map[int]string{1: "2026-10-18T03:20:36.788775975Z", 2: "2026-10-18T03:20:36.789192522Z"}[v]
	if snap.CreatedAt, err = time.Parse(time.RFC3339Nano, created); err != nil {
		t.Fatal(err)
	}
	if v == 2 {
		snap.Refresh = RefreshStats{AppendedRows: 2, ChangedGenes: 1, BuildNanos: 34991}
	}
	return snap
}

// TestLegacySchema1Recovery restarts a store on a data directory of
// schema-1 JSON snapshots: both versions recover bit-identical, the
// next append writes the binary format, and a second restart recovers
// all three.
func TestLegacySchema1Recovery(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "schema1"))
	s := openStore(t, dir, 0)
	for v := 1; v <= 2; v++ {
		got, err := s.GetVersion("legacy", v)
		if err != nil {
			t.Fatalf("legacy v%d: %v", v, err)
		}
		assertSameSnapshot(t, got, legacyWant(t, v))
	}
	v3, err := s.Append("legacy", [][]float64{{7, 0.5, 1, 2}}, []dataset.Label{1})
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, v3)
	if _, err := os.Stat(filepath.Join(dir, "legacy", "v000003.snap")); err != nil {
		t.Fatalf("append after legacy recovery: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "legacy", "v000003.json")); !os.IsNotExist(err) {
		t.Fatalf("append wrote a legacy file: %v", err)
	}
	s2 := openStore(t, dir, 0)
	for v := 1; v <= 2; v++ {
		got, err := s2.GetVersion("legacy", v)
		if err != nil {
			t.Fatalf("legacy v%d after restart: %v", v, err)
		}
		assertSameSnapshot(t, got, legacyWant(t, v))
	}
	got, err := s2.Get("legacy")
	if err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, got, v3)
}

// TestMixedFormatRecoverAndPrune runs a data directory holding both
// formats: a version with a damaged .snap falls back to its .json, the
// latest version wins whatever its format, and the retention cap prunes
// files of both kinds, at recovery and after appends.
func TestMixedFormatRecoverAndPrune(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "schema1"))
	set := filepath.Join(dir, "legacy")
	s := openStore(t, dir, 0)
	var v4 *Snapshot
	for i := 0; i < 2; i++ {
		var err error
		if v4, err = s.Append("legacy", [][]float64{{float64(6 + i), 0.5, 1, 2}}, []dataset.Label{dataset.Label(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A damaged .snap beside v2's intact .json.
	if err := os.WriteFile(filepath.Join(set, "v000002.snap"), []byte("RCBTSNAP torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, 0)
	if vs, err := s2.Versions("legacy"); err != nil || !reflect.DeepEqual(vs, []int{1, 2, 3, 4}) {
		t.Fatalf("versions %v (%v), want [1 2 3 4]", vs, err)
	}
	got, err := s2.GetVersion("legacy", 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, got, legacyWant(t, 2))
	if got, err = s2.Get("legacy"); err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, got, v4)

	// Recovery at a cap of 3 keeps v2–v4 and prunes v1's .json.
	s3 := openStore(t, dir, 3)
	if vs, err := s3.Versions("legacy"); err != nil || !reflect.DeepEqual(vs, []int{2, 3, 4}) {
		t.Fatalf("versions at cap 3: %v (%v), want [2 3 4]", vs, err)
	}
	// Two appends prune v2 (both its files) and then v3's .snap.
	for i := 0; i < 2; i++ {
		if _, err := s3.Append("legacy", [][]float64{{8, 0.5, 1, 2}}, []dataset.Label{1}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(set)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if want := []string{"v000004.snap", "v000005.snap", "v000006.snap"}; !reflect.DeepEqual(files, want) {
		t.Fatalf("files after pruning %v, want %v", files, want)
	}
	if vs, err := openStore(t, dir, 3).Versions("legacy"); err != nil || !reflect.DeepEqual(vs, []int{4, 5, 6}) {
		t.Fatalf("recovered versions %v (%v), want [4 5 6]", vs, err)
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to both snapshot decoders, and
// to the binary one again with the checksum made valid so the fuzzer
// reaches the framing and header checks: each either errors or returns
// a snapshot whose matrix validates, and none panics.
func FuzzLoadSnapshot(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	m := &dataset.Matrix{
		GeneNames:  []string{"g0", "g1"},
		ClassNames: []string{"a", "b"},
		Values:     [][]float64{{1, 3}, {2, 1}, {10, 5}, {11, 9}},
		Labels:     []dataset.Label{0, 0, 1, 1},
	}
	if _, err := s.Create("fz", m.ClassNames, m.GeneNames, m.Values, m.Labels); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Append("fz", [][]float64{{3, 4}}, []dataset.Label{0}); err != nil {
		f.Fatal(err)
	}
	for v, file := range map[int]string{1: "v000001.snap", 2: "v000002.snap"} {
		data, err := os.ReadFile(filepath.Join(dir, "fz", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, "fz", v)
	}
	for v, file := range map[int]string{1: "v000001.json", 2: "v000002.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", "schema1", "legacy", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, "legacy", v)
	}
	f.Fuzz(func(t *testing.T, data []byte, name string, version int) {
		for _, decode := range []func() (*Snapshot, error){
			func() (*Snapshot, error) { return decodeSnapshot(data, name, version) },
			func() (*Snapshot, error) { return decodeSnapshot(reseal(data), name, version) },
			func() (*Snapshot, error) { return decodeLegacySnapshot(data, name, version) },
		} {
			snap, err := decode()
			if err != nil {
				continue
			}
			if err := snap.Matrix.Validate(); err != nil {
				t.Fatalf("decoded snapshot fails Validate: %v", err)
			}
			if snap.Dataset.NumRows() != snap.Matrix.NumRows() {
				t.Fatalf("dataset has %d rows, matrix %d", snap.Dataset.NumRows(), snap.Matrix.NumRows())
			}
			if _, err := discretize.FromCuts(snap.Matrix.ClassNames, snap.Matrix.GeneNames, snap.Discretizer.Cuts); err != nil {
				t.Fatalf("decoded cuts do not rebuild: %v", err)
			}
		}
	})
}
