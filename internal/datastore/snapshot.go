package datastore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/discretize"
)

// SnapshotSchemaVersion is the on-disk snapshot layout written by the
// store: the binary, checksummed v%06d.snap file described below.
// Recovery also reads legacySchemaVersion, the JSON v%06d.json files of
// earlier releases, so an existing data directory restarts onto
// bit-identical snapshots; nothing writes that format any more.
const (
	SnapshotSchemaVersion = 2
	legacySchemaVersion   = 1
)

// snapshotKind tags the header so recovery rejects files written by
// other subsystems that share the data directory.
const snapshotKind = "rcbt-dataset-snapshot"

// A snapshot file is, in order:
//
//	magic   8 bytes   "RCBTSNAP"
//	hlen    uint32    length of the header, little-endian
//	header  hlen      JSON snapshotHeader
//	body    rows×genes×8 bytes: the matrix row-major, each value the
//	                  little-endian IEEE-754 bits of its float64
//	crc     uint32    CRC-32C (Castagnoli) of every byte before it
//
// Gene-expression tables are a few hundred rows by thousands of genes,
// so a snapshot is almost all raw floats: writing their bits instead of
// formatting decimals takes float formatting off the append path, and
// the values round-trip bit for bit by construction.
const (
	snapshotMagic  = "RCBTSNAP"
	snapshotPrefix = len(snapshotMagic) + 4 // magic + header length
	snapshotCRC    = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshotHeader is everything a version holds except its values. It is
// self-contained — the body is the full matrix, the header its labels
// and the fitted cut points — so any retained version recovers without
// replaying its predecessors, and pruning old files never breaks newer
// ones. Cuts are persisted rather than refit at load time: FromCuts
// rebuilds the identical discretizer (and item vocabulary)
// deterministically, keeping recovery cheap and exact.
type snapshotHeader struct {
	Schema    int             `json:"schema"`
	Kind      string          `json:"kind"`
	Name      string          `json:"name"`
	Version   int             `json:"version"`
	CreatedAt time.Time       `json:"createdAt"`
	Classes   []string        `json:"classes"`
	Genes     []string        `json:"genes"`
	Labels    []dataset.Label `json:"labels"`
	Cuts      [][]float64     `json:"cuts"`
	Refresh   RefreshStats    `json:"refresh"`
}

// legacyEnvelope is a schema-1 snapshot: one JSON object holding the
// header fields and the matrix.
type legacyEnvelope struct {
	snapshotHeader
	Values [][]float64 `json:"values"`
}

// Snapshot file names: the binary format, and the legacy JSON one
// recovery still reads.
const (
	snapExt   = ".snap"
	legacyExt = ".json"
)

// snapshotFileRE matches version snapshot file names of either format.
var snapshotFileRE = regexp.MustCompile(`^v(\d+)(\.snap|\.json)$`)

// setDir returns the directory holding one dataset's snapshots.
func (s *Store) setDir(name string) string { return filepath.Join(s.dir, name) }

// versionPath returns the file of one version in the given format.
func (s *Store) versionPath(name string, version int, ext string) string {
	return filepath.Join(s.setDir(name), fmt.Sprintf("v%06d%s", version, ext))
}

// persist streams one snapshot file through the unique-staging
// atomic-rename discipline of package atomicfile: a crash leaves either
// the complete file or a stray .tmp that recovery deletes — never a
// torn snapshot.
func (s *Store) persist(snap *Snapshot) error {
	if err := os.MkdirAll(s.setDir(snap.Name), 0o755); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	header, err := json.Marshal(snapshotHeader{
		Schema:    SnapshotSchemaVersion,
		Kind:      snapshotKind,
		Name:      snap.Name,
		Version:   snap.Version,
		CreatedAt: snap.CreatedAt,
		Classes:   snap.Matrix.ClassNames,
		Genes:     snap.Matrix.GeneNames,
		Labels:    snap.Matrix.Labels,
		Cuts:      snap.Discretizer.Cuts,
		Refresh:   snap.Refresh,
	})
	if err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	path := s.versionPath(snap.Name, snap.Version, snapExt)
	if err := atomicfile.Write(path, func(w io.Writer) error {
		return writeSnapshot(w, header, snap.Matrix.Values)
	}); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	return nil
}

// writeSnapshot writes the file layout above: header is the encoded
// snapshotHeader, values the matrix rows it describes.
func writeSnapshot(w io.Writer, header []byte, values [][]float64) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	sum := crc32.New(castagnoli)
	out := io.MultiWriter(bw, sum)
	rowBytes := 0
	if len(values) > 0 {
		rowBytes = 8 * len(values[0])
	}
	buf := make([]byte, 0, max(snapshotPrefix, rowBytes))
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(header)))
	if _, err := out.Write(buf); err != nil {
		return err
	}
	if _, err := out.Write(header); err != nil {
		return err
	}
	for _, row := range values {
		// A row at a time keeps the scratch small; bufio batches the
		// file writes.
		buf = buf[:0]
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if _, err := out.Write(buf); err != nil {
			return err
		}
	}
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(buf[:0], sum.Sum32())); err != nil {
		return err
	}
	return bw.Flush()
}

// removeSnapshotFile deletes a pruned version's file in whichever
// format holds it, best-effort: a leftover is deleted again by the next
// recovery, which prunes past the retention cap too.
func (s *Store) removeSnapshotFile(name string, version int) {
	for _, ext := range []string{snapExt, legacyExt} {
		os.Remove(s.versionPath(name, version, ext)) // vetsuite:allow uncheckederr -- best-effort prune; recovery re-prunes leftovers
	}
}

// recover scans the root directory and loads every dataset at its
// retained complete versions. Per dataset, the latest parseable
// version wins (a corrupt or alien file is skipped with the next
// older version tried), and up to KeepVersions complete versions are
// kept. Stray .tmp staging files from crashed writes are deleted.
func (s *Store) recover() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("datastore: %w", err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("datastore: recover: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !nameRE.MatchString(e.Name()) {
			continue
		}
		st, err := s.recoverSet(e.Name())
		if err != nil {
			return err
		}
		if st != nil {
			s.sets[st.name] = st
		}
	}
	return nil
}

// recoverSet loads one dataset directory; nil when it holds no
// complete snapshot. A version is read from its .snap file, or from
// its legacy .json file when it has no loadable .snap. Files of
// versions older than the retained ones are pruned once the retention
// cap is reached.
func (s *Store) recoverSet(name string) (*set, error) {
	dir := s.setDir(name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("datastore: recover %s: %w", name, err)
	}
	files := map[int][]string{} // version → its files, .snap first
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), atomicfile.TempSuffix) {
			os.Remove(filepath.Join(dir, e.Name())) // vetsuite:allow uncheckederr -- stray staging file from a crashed write
			continue
		}
		m := snapshotFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		v, err := strconv.Atoi(m[1])
		if err != nil || v < 1 {
			continue
		}
		if path := filepath.Join(dir, e.Name()); m[2] == snapExt {
			files[v] = append([]string{path}, files[v]...)
		} else {
			files[v] = append(files[v], path)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	versions := make([]int, 0, len(files))
	for v := range files {
		versions = append(versions, v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(versions)))
	st := &set{name: name, versions: map[int]*Snapshot{}}
	for i, v := range versions {
		if s.keep > 0 && len(st.versions) >= s.keep {
			for _, old := range versions[i:] {
				s.removeSnapshotFile(name, old)
			}
			break
		}
		for _, path := range files[v] {
			snap, err := loadSnapshot(path, name, v)
			if err != nil {
				// A torn rename cannot produce a corrupt file, but disk
				// mishaps can; skip it and fall back to an older file.
				continue
			}
			if st.latest == 0 {
				st.latest = v
			}
			st.versions[v] = snap
			break
		}
	}
	if st.latest == 0 {
		return nil, nil
	}
	return st, nil
}

// loadSnapshot reads one snapshot file of either format, by its
// extension, and rebuilds the in-memory snapshot.
func loadSnapshot(path, name string, version int) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	decode := decodeSnapshot
	if strings.HasSuffix(path, legacyExt) {
		decode = decodeLegacySnapshot
	}
	snap, err := decode(data, name, version)
	if err != nil {
		return nil, fmt.Errorf("datastore: %s: %w", path, err)
	}
	return snap, nil
}

// decodeSnapshot parses a binary snapshot file of the named version.
// The checksum is verified before the header is parsed, and the body
// must hold exactly the matrix the header describes.
func decodeSnapshot(data []byte, name string, version int) (*Snapshot, error) {
	if len(data) < snapshotPrefix+snapshotCRC {
		return nil, fmt.Errorf("truncated snapshot of %d bytes", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, errors.New("bad magic")
	}
	end := len(data) - snapshotCRC
	if crc32.Checksum(data[:end], castagnoli) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, errors.New("checksum mismatch")
	}
	hlen := uint64(binary.LittleEndian.Uint32(data[len(snapshotMagic):]))
	if hlen > uint64(end-snapshotPrefix) {
		return nil, fmt.Errorf("header of %d bytes overruns the file", hlen)
	}
	var h snapshotHeader
	if err := json.Unmarshal(data[snapshotPrefix:snapshotPrefix+int(hlen)], &h); err != nil {
		return nil, err
	}
	if err := h.check(SnapshotSchemaVersion, name, version); err != nil {
		return nil, err
	}
	body := data[snapshotPrefix+int(hlen) : end]
	rows, genes := len(h.Labels), len(h.Genes)
	if genes == 0 || len(body)%(8*genes) != 0 || len(body)/(8*genes) != rows {
		return nil, fmt.Errorf("%d body bytes for %d rows × %d genes", len(body), rows, genes)
	}
	flat := make([]float64, rows*genes)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	values := make([][]float64, rows)
	for r := range values {
		// Capped capacity: appending to one row can never write into
		// the next.
		values[r] = flat[r*genes : (r+1)*genes : (r+1)*genes]
	}
	return h.restore(values)
}

// decodeLegacySnapshot parses a schema-1 JSON snapshot file of the named
// version.
func decodeLegacySnapshot(data []byte, name string, version int) (*Snapshot, error) {
	var env legacyEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if err := env.check(legacySchemaVersion, name, version); err != nil {
		return nil, err
	}
	return env.restore(env.Values)
}

// check verifies the header names this kind, schema, dataset and
// version.
func (h *snapshotHeader) check(schema int, name string, version int) error {
	if h.Kind != snapshotKind {
		return fmt.Errorf("not a dataset snapshot (kind %q)", h.Kind)
	}
	if h.Schema != schema {
		return fmt.Errorf("unsupported schema %d (want %d)", h.Schema, schema)
	}
	if h.Name != name || h.Version != version {
		return fmt.Errorf("header says %s v%d", h.Name, h.Version)
	}
	return nil
}

// restore rebuilds the in-memory snapshot from a checked header and its
// matrix values: discretizer from the persisted cuts (FromCuts — no
// refit), dataset by transforming the matrix.
func (h *snapshotHeader) restore(values [][]float64) (*Snapshot, error) {
	m := &dataset.Matrix{
		GeneNames:  h.Genes,
		ClassNames: h.Classes,
		Values:     values,
		Labels:     h.Labels,
	}
	if m.Values == nil {
		m.Values = [][]float64{}
	}
	if m.Labels == nil {
		m.Labels = []dataset.Label{}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(h.Cuts) != len(h.Genes) {
		return nil, fmt.Errorf("%d cut lists for %d genes", len(h.Cuts), len(h.Genes))
	}
	dz, err := discretize.FromCuts(h.Classes, h.Genes, h.Cuts)
	if err != nil {
		return nil, err
	}
	ds, err := dz.Transform(m)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Name:        h.Name,
		Version:     h.Version,
		CreatedAt:   h.CreatedAt,
		Matrix:      m,
		Discretizer: dz,
		Dataset:     ds,
		Refresh:     h.Refresh,
	}, nil
}
