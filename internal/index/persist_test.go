package index

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"gent/internal/table"
)

// saveStamped writes one substrate file the way SaveDir does: through
// saveFile, stamped with the dictionary's fingerprint.
func saveStamped(t *testing.T, path string, save func(io.Writer, uint64) error, dict *table.Dict) {
	t.Helper()
	err := saveFile(path, func(w io.Writer) error { return save(w, dict.Fingerprint()) })
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinHashSaveLoadRoundTrip(t *testing.T) {
	l := buildLake()
	orig := BuildMinHashLSH(l)
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "mh.idx")
	saveStamped(t, path, orig.save, l.Dict())
	got, err := LoadMinHashLSHFile(path, l.Dict())
	if err != nil {
		t.Fatal(err)
	}
	q := table.New("q", "name")
	q.AddRow(table.S("Smith"))
	q.AddRow(table.S("Brown"))
	q.AddRow(table.S("Wang"))
	a, b := orig.TopK(q, 3), got.TopK(q, 3)
	if len(a) != len(b) {
		t.Fatalf("TopK differs after round trip")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ranked %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadMinHashLSH(bytes.NewReader([]byte("not a gob")), nil); err == nil {
		t.Error("garbage accepted as minhash index")
	}
	if _, err := LoadMinHashLSH(bytes.NewReader(nil), nil); err == nil {
		t.Error("empty input accepted as minhash index")
	}
	if _, err := LoadMinHashLSHFile("/nonexistent/path", nil); err == nil {
		t.Error("missing file accepted")
	}
}
