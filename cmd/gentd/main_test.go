package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"gent/internal/core"
	"gent/internal/lake"
	"gent/internal/server"
	"gent/internal/server/boot"
)

// forceHit marks the response body it writes as a result-cache hit.
type forceHit struct{ http.ResponseWriter }

func (w forceHit) Write(b []byte) (int, error) {
	w.Header().Set("X-Gent-Cache", "hit")
	return w.ResponseWriter.Write(b)
}

// smokeFixture writes a two-table lake and a source both tables jointly
// hold, and opens the lake.
func smokeFixture(t *testing.T) (source string, l *lake.Lake) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("lake/names.csv", "id,name\ne1,Ada\ne2,Grace\n")
	write("lake/roles.csv", "id,role\ne1,Engineer\ne2,Admiral\n")
	source = write("source.csv", "id,name,role\ne1,Ada,Engineer\ne2,Grace,Admiral\n")
	l, err := boot.OpenLake(boot.LakeOptions{Dir: filepath.Join(dir, "lake")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return source, l
}

// TestSmokePasses runs every smoke step against an in-process server: it
// passes and leaves the lake's tables as it found them.
func TestSmokePasses(t *testing.T) {
	source, l := smokeFixture(t)
	before := l.Snapshot().Names()
	hs := httptest.NewServer(server.New(core.NewReclaimer(l, core.DefaultConfig()), server.Config{}).Handler())
	defer hs.Close()
	if code := runSmoke(hs.URL, source); code != 0 {
		t.Fatalf("smoke exited %d", code)
	}
	if after := l.Snapshot().Names(); !slices.Equal(after, before) {
		t.Fatalf("smoke left the lake with tables %v, found %v", after, before)
	}
}

// TestSmokeDropsChurnTableOnFailure: a smoke that fails after its Put — here
// the post-Apply reclaim claims a stale cache hit — must still drop the
// table it put, so a failed smoke leaves the served lake as it found it.
func TestSmokeDropsChurnTableOnFailure(t *testing.T) {
	source, l := smokeFixture(t)
	h := server.New(core.NewReclaimer(l, core.DefaultConfig()), server.Config{}).Handler()
	var applied, forced atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/lake/apply":
			h.ServeHTTP(w, r)
			applied.Store(true)
		case r.URL.Path == "/v1/reclaim" && applied.Load():
			forced.Store(true)
			h.ServeHTTP(forceHit{w}, r)
		default:
			h.ServeHTTP(w, r)
		}
	}))
	defer hs.Close()

	if code := runSmoke(hs.URL, source); code == 0 {
		t.Fatal("smoke passed although the post-apply reclaim reported a cache hit")
	}
	if !forced.Load() {
		t.Fatal("smoke failed before its post-apply reclaim")
	}
	if names := l.Snapshot().Names(); slices.Contains(names, "smoke_churn") {
		t.Fatalf("failed smoke left smoke_churn in the lake: %v", names)
	}
}
