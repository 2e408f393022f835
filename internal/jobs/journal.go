package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/rcbt"
)

// persist journals one record as DataDir/jobs/<id>.json via the
// write-temp-then-rename idiom, so a crash mid-write leaves either the
// old record or the new one, never a torn file.
func (m *Manager) persist(rec *Record) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(m.jobsDir, rec.ID+".json"), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// saveModel streams a model envelope into a staging file unique to the
// call and renames it into place: a crashed train job never leaves a
// half-written model a restarted server would try to load, and two
// concurrent trains of one model name (an auto-refresh beside a manual
// train) cannot truncate each other's staging file — the last rename
// wins with a complete envelope.
func (m *Manager) saveModel(path string, model *rcbt.Model) error {
	return atomicfile.Write(path, model.Save)
}

// recoverJournal creates the data directories, deletes stray staging
// files, and loads every journaled record. Jobs that were queued or
// running when their process died are rewritten as failed with an
// interrupted cause — a restarted manager never reports a job it is
// not actually running.
func (m *Manager) recoverJournal() error {
	for _, dir := range []string{m.jobsDir, m.modelsDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		// Staging files of writes a crash interrupted; their
		// destinations still hold the previous complete file.
		stray, err := filepath.Glob(filepath.Join(dir, "*"+atomicfile.TempSuffix))
		if err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		for _, p := range stray {
			os.Remove(p) // vetsuite:allow uncheckederr -- best-effort; the next recovery retries
		}
	}
	paths, err := filepath.Glob(filepath.Join(m.jobsDir, "*.json"))
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	var recovered []*Record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("jobs: recover: %w", err)
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			m.logf("jobs: skipping unreadable journal file %s: %v", p, err)
			continue
		}
		if rec.Schema != JournalSchemaVersion {
			m.logf("jobs: skipping journal file %s: schema %d (want %d)", p, rec.Schema, JournalSchemaVersion)
			continue
		}
		if rec.ID == "" {
			m.logf("jobs: skipping journal file %s: no job id", p)
			continue
		}
		if !rec.Terminal() {
			now := time.Now().UTC()
			rec.Error = "interrupted: manager exited while the job was " + rec.State
			rec.State = StateFailed
			rec.ErrCause = CauseInterrupted
			rec.FinishedAt = &now
			if err := m.persist(&rec); err != nil {
				return fmt.Errorf("jobs: recover: %w", err)
			}
			m.logf("job %s recovered as failed (interrupted)", rec.ID)
		}
		recovered = append(recovered, &rec)
	}
	sortRecovered(recovered)
	for _, rec := range recovered {
		m.recs[rec.ID] = rec
		m.order = append(m.order, rec.ID)
		m.noteTerminalLocked(rec)
	}
	return nil
}
