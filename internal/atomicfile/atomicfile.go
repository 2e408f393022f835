// Package atomicfile writes files by the stage-and-rename idiom shared
// by the job journal, the model store and the dataset snapshots: the
// content is streamed into a temp file unique to the call, next to the
// destination, and renamed into place. Concurrent writers of one path
// cannot truncate each other's staging file (the last rename wins with
// a complete file), and a crash leaves either the old destination or a
// stray "*.tmp" file that the owner's recovery deletes — never a torn
// destination.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// TempSuffix ends every staging file name, so recovery can recognise
// the debris of a crashed write.
const TempSuffix = ".tmp"

// Write stages the bytes write produces in a unique temp file in
// path's directory and renames it onto path. On any error the staging
// file is removed and path is left untouched.
func Write(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*"+TempSuffix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()      // vetsuite:allow uncheckederr -- error path, write failure already reported
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) // vetsuite:allow uncheckederr -- best-effort staging cleanup
		return err
	}
	return nil
}
