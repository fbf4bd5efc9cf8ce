package boot

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gent/internal/core"
	"gent/internal/index"
	"gent/internal/lake"
	"gent/internal/lake/laketest"
	"gent/internal/table"
)

// twoTableLake builds a lake of two fixed-schema tables whose cell values
// all carry prefix — same catalog, disjoint dictionaries across prefixes.
func twoTableLake(prefix string) *lake.Lake {
	l := lake.New()
	for _, name := range []string{"left", "right"} {
		t := table.New(name, "k", "v")
		for i := 0; i < 5; i++ {
			t.AddRow(table.S(fmt.Sprintf("%s-k%d", prefix, i)), table.S(fmt.Sprintf("%s-%s%d", prefix, name, i)))
		}
		laketest.Add(l, t)
	}
	return l
}

// adopt runs AdoptIndexes for a fresh session over l, collecting warnings.
func adopt(t *testing.T, l *lake.Lake, dir string) (IndexOutcome, []string) {
	t.Helper()
	return adoptInto(t, core.NewReclaimer(l, core.DefaultConfig()), dir)
}

// adoptInto runs AdoptIndexes for session, collecting warnings.
func adoptInto(t *testing.T, session *core.Reclaimer, dir string) (IndexOutcome, []string) {
	t.Helper()
	var warnings []string
	out, err := AdoptIndexes(session, dir, func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatalf("AdoptIndexes: %v", err)
	}
	return out, warnings
}

// TestAdoptIndexesRebuildsForeignDictionary: persisted indexes that cover
// the lake's catalog but are keyed under a dictionary lacking its values are
// warned about and rebuilt, and the rebuilt directory loads as-is on the
// next start.
func TestAdoptIndexesRebuildsForeignDictionary(t *testing.T) {
	dir := t.TempDir()
	foreign := index.BuildIndexSetSharded(twoTableLake("theirs").Snapshot(), index.DefaultShards)
	foreign.Epoch = lake.Epoch{} // unstamped, so the dictionary is what refuses it
	if err := foreign.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	out, warnings := adopt(t, twoTableLake("ours"), dir)
	if out.Action != "built" {
		t.Fatalf("foreign-dictionary indexes: action %q, want built", out.Action)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], lake.ErrDictMismatch.Error()) {
		t.Fatalf("warnings = %q, want one naming the dictionary mismatch", warnings)
	}
	if out, warnings := adopt(t, twoTableLake("ours"), dir); out.Action != "loaded" || len(warnings) != 0 {
		t.Fatalf("next start: action %q, warnings %q; want a clean load", out.Action, warnings)
	}
}

// TestAdoptIndexesRebuildsLegacyDirectory: a directory in a retired layout —
// a pre-sharding inverted.gob alone, or a v5 inverted.bin beside the gob
// dictionary, epoch, MinHash and semantic files or beside the dict.bin it
// was saved with — is warned about, rebuilt in the current format with every
// retired file removed, and loads cleanly on the next start. A current save
// with a leftover semantic.bin (what a hybrid session of the retired
// semantic discovery channel wrote) still loads as is.
func TestAdoptIndexesRebuildsLegacyDirectory(t *testing.T) {
	gobs := []string{"dict.gob", "epoch.gob", "minhash.gob", "semantic.gob"}
	// A v5 inverted.bin: the magic, the version and then bytes this release
	// never reads.
	v5 := append(binary.LittleEndian.AppendUint32([]byte("GENTINVX"), 5), make([]byte, 64)...)
	for name, c := range map[string]struct {
		current bool // a current save beside the legacy files
		v5      bool // a v5 inverted.bin beside the legacy files
		legacy  []string
	}{
		"pre-sharding":   {false, false, []string{"inverted.gob"}},
		"gob dictionary": {false, true, gobs},
		"v5 dictionary":  {false, true, []string{"dict.bin"}},
		"hybrid session": {true, false, []string{"semantic.bin"}},
	} {
		dir := t.TempDir()
		if c.current {
			if err := index.BuildIndexSetSharded(twoTableLake("ours").Snapshot(), index.DefaultShards).SaveDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		if c.v5 {
			if err := os.WriteFile(filepath.Join(dir, "inverted.bin"), v5, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range c.legacy {
			if err := os.WriteFile(filepath.Join(dir, f), []byte("an earlier layout's file"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		out, warnings := adopt(t, twoTableLake("ours"), dir)
		if c.current {
			if out.Action != "loaded" || len(warnings) != 0 {
				t.Fatalf("%s: action %q, warnings %q; want a clean load", name, out.Action, warnings)
			}
			continue
		}
		if out.Action != "built" {
			t.Fatalf("%s: action %q, want built", name, out.Action)
		}
		if len(warnings) != 1 || !strings.Contains(warnings[0], index.ErrStaleFormat.Error()) {
			t.Fatalf("%s: warnings = %q, want one naming the stale format", name, warnings)
		}
		for _, f := range c.legacy {
			if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
				t.Fatalf("%s: rebuild left %s behind (stat: %v)", name, f, err)
			}
		}
		if out, warnings := adopt(t, twoTableLake("ours"), dir); out.Action != "loaded" || len(warnings) != 0 {
			t.Fatalf("%s: next start: action %q, warnings %q; want a clean load", name, out.Action, warnings)
		}
	}
}

// TestAdoptIndexesRebuildsChangedLake: indexes saved before the lake
// changed — it gained a table, or one cell of an indexed table took a value
// the saved dictionary already holds, which neither the dictionary nor the
// schema can see — are warned about and rebuilt, never served stale: a
// reclaim through the session matches one over a fresh session, and the
// rebuilt directory loads as-is on the next start.
func TestAdoptIndexesRebuildsChangedLake(t *testing.T) {
	extra := table.New("extra", "k", "w")
	for i := 0; i < 5; i++ {
		extra.AddRow(table.S(fmt.Sprintf("ours-k%d", i)), table.S(fmt.Sprintf("ours-extra%d", i)))
	}
	edited := table.New("left", "k", "v")
	for i := 0; i < 5; i++ {
		v := fmt.Sprintf("ours-left%d", i)
		if i == 2 {
			v = "ours-right3"
		}
		edited.AddRow(table.S(fmt.Sprintf("ours-k%d", i)), table.S(v))
	}
	for name, c := range map[string]struct {
		change *table.Table // put into the lake after the save
		src    *table.Table
	}{
		"grown":  {extra, extra.Project("k", "w")},
		"edited": {edited, edited.Project("k", "v")},
	} {
		changed := func() *lake.Lake {
			l := twoTableLake("ours")
			laketest.Add(l, c.change.Clone())
			return l
		}
		c.src.Name, c.src.Key = "source", []int{0}
		dir := t.TempDir()
		if out, warnings := adopt(t, twoTableLake("ours"), dir); out.Action != "built" || len(warnings) != 0 {
			t.Fatalf("%s: first start: action %q, warnings %q; want a silent build", name, out.Action, warnings)
		}

		session := core.NewReclaimer(changed(), core.DefaultConfig())
		out, warnings := adoptInto(t, session, dir)
		if out.Action != "built" || len(warnings) != 1 {
			t.Fatalf("%s: action %q, warnings %q; want built with one warning", name, out.Action, warnings)
		}
		ctx := context.Background()
		got, err := session.ReclaimContext(ctx, c.src)
		if err != nil {
			t.Fatalf("%s: reclaim: %v", name, err)
		}
		want, err := core.ReclaimContext(ctx, changed(), c.src, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: fresh reclaim: %v", name, err)
		}
		if !want.Report.PerfectReclamation {
			t.Fatalf("%s: fresh reclaim is not perfect (EIS %v); the source misses the change", name, want.Report.EIS)
		}
		if table.Fingerprint(got.Reclaimed) != table.Fingerprint(want.Reclaimed) || got.Report.EIS != want.Report.EIS {
			t.Fatalf("%s: reclaim after rebuild (EIS %v) diverges from a fresh session (EIS %v)", name, got.Report.EIS, want.Report.EIS)
		}

		if out, warnings := adopt(t, changed(), dir); out.Action != "loaded" || len(warnings) != 0 {
			t.Fatalf("%s: next start: action %q, warnings %q; want a clean load", name, out.Action, warnings)
		}
	}
}

// TestAdoptIndexesRebuildsUnstampedSet: a set saved without an epoch stamp
// cannot say which lake contents its postings hold, so it is warned about
// and rebuilt even where the catalog and the dictionary prefix still verify
// (here the lake interned its tables, then one cell took a value the saved
// dictionary lacks), and the rebuilt, stamped directory loads as-is on the
// next start.
func TestAdoptIndexesRebuildsUnstampedSet(t *testing.T) {
	dir := t.TempDir()
	unstamped := index.BuildIndexSetSharded(twoTableLake("ours").Snapshot(), index.DefaultShards)
	unstamped.Epoch = lake.Epoch{}
	if err := unstamped.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	edited := table.New("left", "k", "v")
	for i := 0; i < 5; i++ {
		v := fmt.Sprintf("ours-left%d", i)
		if i == 2 {
			v = "ours-zephyr"
		}
		edited.AddRow(table.S(fmt.Sprintf("ours-k%d", i)), table.S(v))
	}
	changed := func() *lake.Lake {
		l := twoTableLake("ours")
		l.Snapshot().EnsureInterned()
		laketest.Add(l, edited.Clone())
		return l
	}
	out, warnings := adopt(t, changed(), dir)
	if out.Action != "built" {
		t.Fatalf("unstamped set: action %q, want built", out.Action)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], core.ErrEpochMismatch.Error()) {
		t.Fatalf("warnings = %q, want one naming the epoch mismatch", warnings)
	}
	if out, warnings := adopt(t, changed(), dir); out.Action != "loaded" || len(warnings) != 0 {
		t.Fatalf("next start: action %q, warnings %q; want a clean load", out.Action, warnings)
	}
}

// TestAdoptIndexesRestartOverCSVLake is the restart path over a lake of CSV
// files, the case that rests on deterministic interning: nothing of the
// dictionary is persisted, so a fresh lake.LoadDir of the same files must
// intern the very dictionary the saved index's stamp names. The first start
// builds and saves, a restart on the same files loads as-is, and a restart
// after one CSV was edited rebuilds with one warning.
func TestAdoptIndexesRestartOverCSVLake(t *testing.T) {
	l := twoTableLake("ours")
	mixed := table.New("mixed", "k", "n", "note")
	for i := 0; i < 20; i++ {
		note := table.S(fmt.Sprintf("note %d", i%7))
		if i%5 == 0 {
			note = table.Null
		}
		mixed.AddRow(table.S(fmt.Sprintf("ours-k%d", i%5)), table.N(float64(i)/4), note)
	}
	laketest.Add(l, mixed)
	lakeDir, idxDir := t.TempDir(), t.TempDir()
	if err := l.SaveDir(lakeDir); err != nil {
		t.Fatal(err)
	}
	start := func() (IndexOutcome, []string) {
		t.Helper()
		l, errs := lake.LoadDir(lakeDir)
		if len(errs) > 0 {
			t.Fatalf("LoadDir: %v", errs)
		}
		return adopt(t, l, idxDir)
	}
	if out, warnings := start(); out.Action != "built" || len(warnings) != 0 {
		t.Fatalf("first start: action %q, warnings %q; want a silent build", out.Action, warnings)
	}
	if out, warnings := start(); out.Action != "loaded" || len(warnings) != 0 {
		t.Fatalf("restart: action %q, warnings %q; want a clean load", out.Action, warnings)
	}
	path := filepath.Join(lakeDir, "left.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), "ours-left3", "ours-left33", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, warnings := start(); out.Action != "built" || len(warnings) != 1 {
		t.Fatalf("restart after an edit: action %q, warnings %q; want built with one warning", out.Action, warnings)
	}
}
