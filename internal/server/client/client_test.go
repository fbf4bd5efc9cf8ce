package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gent/internal/server/client"
	"gent/internal/table"
)

// streamServer answers every request with the NDJSON body write produces.
func streamServer(t *testing.T, write func(w http.ResponseWriter)) *client.Client {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		write(w)
	}))
	t.Cleanup(hs.Close)
	return client.New(hs.URL, hs.Client())
}

func oneSource() []*table.Table {
	src := table.New("s", "id")
	src.AddRow(table.S("e1"))
	return []*table.Table{src}
}

// TestReclaimStreamReadsLongLines: an item's line is as long as the item. A
// 65 MiB line, longer than any fixed line buffer a reader might pick, is
// delivered whole, and so is the item after it.
func TestReclaimStreamReadsLongLines(t *testing.T) {
	const msgLen = 65 << 20
	c := streamServer(t, func(w http.ResponseWriter) {
		io.WriteString(w, `{"index":0,"error":{"error":"`) //nolint:errcheck
		chunk := bytes.Repeat([]byte{'x'}, 1<<20)
		for n := 0; n < msgLen; n += len(chunk) {
			w.Write(chunk) //nolint:errcheck
		}
		io.WriteString(w, `","code":"no_key"}}`+"\n"+`{"index":1,"error":{"error":"short"}}`+"\n") //nolint:errcheck
	})
	var got []client.Item
	err := c.ReclaimStream(context.Background(), oneSource(), nil, func(it client.Item) bool {
		got = append(got, it)
		return true
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("stream delivered %d items, want 2", len(got))
	}
	var long *client.Error
	if !errors.As(got[0].Err, &long) || len(long.Msg) != msgLen || long.Code != "no_key" {
		t.Errorf("item 0: want a no_key error of %d bytes, got %T", msgLen, got[0].Err)
	}
	if got[1].Index != 1 || got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "short") {
		t.Errorf("item 1 = %+v, want index 1 with the error \"short\"", got[1])
	}
}

// TestReclaimStreamCutIsAnError: a stream the server aborts after its first
// item delivers that item and then fails, so a cut stream never reads as a
// complete, shorter one.
func TestReclaimStreamCutIsAnError(t *testing.T) {
	c := streamServer(t, func(w http.ResponseWriter) {
		io.WriteString(w, `{"index":0,"error":{"error":"first"}}`+"\n") //nolint:errcheck
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	n := 0
	err := c.ReclaimStream(context.Background(), oneSource(), nil, func(client.Item) bool {
		n++
		return true
	})
	if n != 1 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut stream: %d items, err %v; want 1 item, then io.ErrUnexpectedEOF", n, err)
	}
}
