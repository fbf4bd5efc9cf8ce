package table

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes path through a temporary sibling that is renamed
// into place once write has succeeded and the file is closed, creating
// missing parent directories. A failing write, close or rename removes the
// temporary and leaves any previous file at path untouched, so a reader
// only ever sees the old contents or the complete new ones. Errors come
// back unwrapped; callers add their own package prefix.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
