package table

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write that fails midway leaves the previous file
// byte-identical and no temporary behind; a successful one replaces it; and
// missing parent directories are created.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "new", "nested", "file.gob")
	content := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	check := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("file holds %q, %v; want %q", got, err, want)
		}
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil || len(entries) != 1 {
			t.Fatalf("directory holds %v, %v; want only the target", entries, err)
		}
	}

	if err := WriteFileAtomic(path, content("first")); err != nil {
		t.Fatalf("write into a missing directory: %v", err)
	}
	check("first")

	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the sec"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the callback's error", err)
	}
	check("first")

	if err := WriteFileAtomic(path, content("second")); err != nil {
		t.Fatal(err)
	}
	check("second")
}
