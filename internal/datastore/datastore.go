// Package datastore is the versioned dataset subsystem behind the
// streaming ingestion API: named gene-expression datasets whose every
// mutation (create, append rows) produces a new immutable snapshot,
// persisted as one self-contained binary file per version (v%06d.snap:
// a JSON header, the matrix as raw little-endian float64 bits, and a
// CRC-32C trailer) with the same unique-staging atomic-rename
// discipline as the job journal. A restarted store recovers each
// dataset at its latest complete version, skipping any file that fails
// its checksum, and still reads the JSON v%06d.json snapshots of
// earlier releases; a torn write from a crash mid-append is at worst a
// stray .tmp file that recovery deletes.
//
// Appends run the incremental refresh pipeline (refresh.go): cut
// points are refit on the grown matrix, but only genes whose
// Fayyad–Irani cuts actually changed have their item columns
// recomputed — unchanged genes reuse the previous snapshot's
// row→interval columns, and when no gene changed at all the previous
// dataset and its transposed bitset index are extended in place-free
// fashion via dataset.AppendRows. The refreshed snapshot is guaranteed
// to deep-equal a from-scratch FitMatrix+Transform on the same data
// (the oracle the tests enforce), so models re-trained on it are
// indistinguishable from full retrains.
//
// See DESIGN.md §12 for the snapshot format and refresh semantics.
package datastore

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/discretize"
)

// Sentinel errors. The HTTP layer maps them onto the error taxonomy:
// ErrNotFound → 404, ErrExists / ErrVersionGone → 409, ErrBadRequest
// → 422.
var (
	// ErrNotFound reports an unknown dataset name.
	ErrNotFound = errors.New("datastore: no such dataset")
	// ErrExists rejects creating a dataset whose name is taken.
	ErrExists = errors.New("datastore: dataset already exists")
	// ErrVersionGone reports a version that was pruned by the retention
	// policy or never existed. A client pinned to "name@v" learns its
	// snapshot is no longer trainable.
	ErrVersionGone = errors.New("datastore: version pruned or unknown")
	// ErrBadRequest wraps every request validation failure.
	ErrBadRequest = errors.New("datastore: invalid request")
)

// nameRE is the dataset (and model) name character set: path-safe and
// free of '@' and '/', so "name@version" references and snapshot file
// paths parse unambiguously. Deliberately identical to the job
// manager's model-name rule — auto-refresh reuses the dataset name as
// the served model name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// Config configures a Store.
type Config struct {
	// Dir is the root directory; dataset name n's snapshots live at
	// Dir/n/v%06d.snap (versions written by earlier releases may be
	// Dir/n/v%06d.json, which recovery still reads). Required.
	Dir string
	// KeepVersions bounds retained versions per dataset; older
	// snapshots are pruned from memory and disk after each append.
	// 0 keeps everything.
	KeepVersions int
}

// Store is a collection of named, versioned datasets. All methods are
// safe for concurrent use; mutations of one dataset serialize on a
// per-dataset writer lock so appends to different datasets proceed in
// parallel, and reads never wait for a mutation's fit or persist.
type Store struct {
	dir  string
	keep int

	mu   sync.RWMutex // guards sets map shape
	sets map[string]*set

	// midAppend, when set by a test, runs inside Append after the
	// writer lock is taken and before the new version is installed.
	midAppend func()
}

// set is one named dataset's retained versions. A mutation holds
// writeMu from start to finish and mu only to read the latest version
// and to install the new one, so Get and GetVersion never wait for a
// fit or a persist.
type set struct {
	writeMu sync.Mutex // serializes mutations
	name    string

	mu       sync.Mutex // guards the fields below
	latest   int        // 0 while version 1 is still being created
	versions map[int]*Snapshot
}

// Snapshot is one immutable version of a dataset: the raw expression
// matrix, the discretizer fit on it, and the discretized item dataset.
// Callers must treat every reachable field as read-only — snapshots
// are shared between the store, serving, and in-flight train jobs.
type Snapshot struct {
	Name      string
	Version   int
	CreatedAt time.Time

	Matrix      *dataset.Matrix
	Discretizer *discretize.Discretizer
	Dataset     *dataset.Dataset

	// Refresh describes how this snapshot was built from its
	// predecessor (zero for version 1 and recovered snapshots).
	Refresh RefreshStats

	// cols[g] is gene g's row→interval-index column (nil for genes
	// MDL dropped). Kept only on the latest version of each dataset;
	// it is the reuse substrate of the next incremental refresh.
	cols [][]int32
}

// Open creates dir if needed and recovers every dataset found under it
// at its latest complete version (plus up to KeepVersions-1 older
// complete versions). Stray .tmp staging files from crashed appends,
// and the files of versions older than the retained ones, are deleted.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("datastore: Config.Dir is required")
	}
	s := &Store{
		dir:  cfg.Dir,
		keep: cfg.KeepVersions,
		sets: map[string]*set{},
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// bad builds an ErrBadRequest-wrapped validation error.
func bad(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// Create registers a new dataset from its schema and initial rows
// (which may be empty: a dataset can be created bare and filled by
// appends) and persists snapshot version 1.
func (s *Store) Create(name string, classes, genes []string, values [][]float64, labels []dataset.Label) (*Snapshot, error) {
	if !nameRE.MatchString(name) {
		return nil, bad("dataset name %q must match %s", name, nameRE)
	}
	if len(classes) < 2 {
		return nil, bad("need at least 2 classes, have %d", len(classes))
	}
	if len(genes) == 0 {
		return nil, bad("need at least 1 gene")
	}
	m := &dataset.Matrix{
		GeneNames:  append([]string(nil), genes...),
		ClassNames: append([]string(nil), classes...),
		Values:     copyValues(values, len(genes)),
		Labels:     append([]dataset.Label(nil), labels...),
	}
	if err := m.Validate(); err != nil {
		return nil, bad("%v", err)
	}

	s.mu.Lock()
	if _, ok := s.sets[name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	st := &set{name: name, versions: map[int]*Snapshot{}}
	st.writeMu.Lock() // readers see ErrNotFound until v1 is installed
	s.sets[name] = st
	s.mu.Unlock()
	defer st.writeMu.Unlock()

	snap, err := buildFull(name, 1, m)
	if err != nil {
		s.dropSet(name)
		return nil, err
	}
	if err := s.persist(snap); err != nil {
		s.dropSet(name)
		return nil, err
	}
	st.mu.Lock()
	st.latest = 1
	st.versions[1] = snap
	st.mu.Unlock()
	return snap, nil
}

// dropSet removes a half-created set after a failed Create.
func (s *Store) dropSet(name string) {
	s.mu.Lock()
	delete(s.sets, name)
	s.mu.Unlock()
}

// Append adds rows to a dataset, producing and persisting the next
// snapshot version via the incremental refresh pipeline. At least one
// row is required (an empty append would mint an identical version).
func (s *Store) Append(name string, values [][]float64, labels []dataset.Label) (*Snapshot, error) {
	if len(values) == 0 {
		return nil, bad("append needs at least one row")
	}
	st, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	old, err := st.current()
	if err != nil {
		return nil, err
	}

	m := &dataset.Matrix{
		GeneNames:  old.Matrix.GeneNames,
		ClassNames: old.Matrix.ClassNames,
		Values:     make([][]float64, 0, len(old.Matrix.Values)+len(values)),
		Labels:     make([]dataset.Label, 0, len(old.Matrix.Labels)+len(labels)),
	}
	m.Values = append(append(m.Values, old.Matrix.Values...), copyValues(values, len(m.GeneNames))...)
	m.Labels = append(append(m.Labels, old.Matrix.Labels...), labels...)
	if err := m.Validate(); err != nil {
		return nil, bad("%v", err)
	}

	snap, err := buildIncremental(old, m, len(values))
	if err != nil {
		return nil, err
	}
	if s.midAppend != nil {
		s.midAppend()
	}
	if err := s.persist(snap); err != nil {
		return nil, err
	}
	old.cols = nil // reuse substrate lives on the latest version only
	st.mu.Lock()
	st.latest = snap.Version
	st.versions[snap.Version] = snap
	pruned := s.prune(st)
	st.mu.Unlock()
	for _, v := range pruned {
		s.removeSnapshotFile(st.name, v)
	}
	return snap, nil
}

// current returns the set's latest snapshot, or ErrNotFound while
// version 1 is still being created (or its creation failed).
func (st *set) current() (*Snapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.latest == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, st.name)
	}
	return st.versions[st.latest], nil
}

// prune enforces KeepVersions on one set whose mu the caller holds:
// the oldest versions past the cap are dropped from memory and
// returned, so their files can be removed once mu is released.
// Removal failures are ignored — a leftover file is re-pruned on next
// recover.
func (s *Store) prune(st *set) []int {
	if s.keep <= 0 || len(st.versions) <= s.keep {
		return nil
	}
	vs := make([]int, 0, len(st.versions))
	for v := range st.versions {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	vs = vs[:len(vs)-s.keep]
	for _, v := range vs {
		delete(st.versions, v)
	}
	return vs
}

// lookup finds a set by name.
func (s *Store) lookup(name string) (*set, error) {
	s.mu.RLock()
	st, ok := s.sets[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return st, nil
}

// Get returns the latest snapshot of name.
func (s *Store) Get(name string) (*Snapshot, error) {
	st, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return st.current()
}

// GetVersion returns one pinned snapshot. A version the dataset never
// reached, or one pruned by the retention policy, is ErrVersionGone.
func (s *Store) GetVersion(name string, version int) (*Snapshot, error) {
	st, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.latest == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	snap, ok := st.versions[version]
	if !ok {
		return nil, fmt.Errorf("%w: %s version %d (latest %d)", ErrVersionGone, name, version, st.latest)
	}
	return snap, nil
}

// Resolve parses a dataset reference — "name" for the latest version,
// "name@v" for a pinned one — and returns its snapshot.
func (s *Store) Resolve(ref string) (*Snapshot, error) {
	name, ver, err := ParseRef(ref)
	if err != nil {
		return nil, err
	}
	if ver == 0 {
		return s.Get(name)
	}
	return s.GetVersion(name, ver)
}

// ParseRef splits a "name" or "name@version" dataset reference.
// version 0 means "latest".
func ParseRef(ref string) (name string, version int, err error) {
	name = ref
	if i := strings.IndexByte(ref, '@'); i >= 0 {
		name = ref[:i]
		v, err := strconv.Atoi(ref[i+1:])
		if err != nil || v < 1 {
			return "", 0, bad("dataset reference %q: version must be a positive integer", ref)
		}
		version = v
	}
	if !nameRE.MatchString(name) {
		return "", 0, bad("dataset reference %q: name must match %s", ref, nameRE)
	}
	return name, version, nil
}

// Names returns the registered dataset names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.sets))
	for n := range s.sets {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Versions returns the retained version numbers of name, ascending.
func (s *Store) Versions(name string) ([]int, error) {
	st, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	vs := make([]int, 0, len(st.versions))
	for v := range st.versions {
		vs = append(vs, v)
	}
	st.mu.Unlock()
	sort.Ints(vs)
	return vs, nil
}

// copyValues deep-copies the row values, normalizing each row to a
// fresh slice so later appends never alias caller memory. Rows of the
// wrong width are passed through; Matrix.Validate reports them.
func copyValues(values [][]float64, genes int) [][]float64 {
	out := make([][]float64, len(values))
	for i, row := range values {
		out[i] = append(make([]float64, 0, genes), row...)
	}
	return out
}
