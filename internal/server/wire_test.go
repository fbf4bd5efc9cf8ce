package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"gent/internal/table"
)

// FuzzWire feeds arbitrary request bodies through the wire decoders the
// handlers run — decodeJSON, then DecodeTable for a source or DecodeMutation
// for an apply. Every failure is one the handlers serve as 400 bad_request;
// every success is a table that passes Validate and comes back equal from
// its own EncodeTable. Nothing panics.
func FuzzWire(f *testing.F) {
	for _, seed := range []string{
		`{"name":"t","cols":["k","v"],"key":["k"],"rows":[["a","1"],["b",null]]}`,
		`{"name":"t","cols":["k","k"],"rows":[["1.0","01"],["-0","NaN"]]}`,
		`{"name":"t","cols":["k"],"key":["x"],"rows":[["a"]]}`,
		`{"name":"t","cols":["a","b"],"rows":[["only one"]]}`,
		`{"op":"put","table":{"name":"t","cols":["a"],"rows":[["1e3"],[""]]}}`,
		`{"op":"rename","from":"a","to":"b"}`,
		`{"op":"drop","name":"t"} trailing`,
		`{"name":"\u0000label:1","cols":[""],"rows":[["\u0000label:7"]]}`,
		`[1, {"name": 2}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tj TableJSON
		if decode(data, &tj) == nil {
			if tab, err := DecodeTable(&tj); err == nil {
				checkWireTable(t, tab)
			}
		}
		var mj MutationJSON
		if decode(data, &mj) == nil {
			if _, err := DecodeMutation(mj); err == nil && mj.Op == "put" {
				tab, err := DecodeTable(mj.Table)
				if err != nil {
					t.Fatalf("a put DecodeMutation accepted has a table DecodeTable refuses: %v", err)
				}
				checkWireTable(t, tab)
			}
		}
	})
}

// decode runs decodeJSON over data as a request body.
func decode(data []byte, v any) error {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
	return decodeJSON(httptest.NewRecorder(), r, v)
}

// checkWireTable fails unless tab is valid and its wire form decodes back to
// an equal table: the same name, columns and key, and every cell of the
// same kind, text and content.
func checkWireTable(t *testing.T, tab *table.Table) {
	t.Helper()
	if err := tab.Validate(); err != nil {
		t.Fatalf("decoded table fails Validate: %v", err)
	}
	back, err := DecodeTable(EncodeTable(tab))
	if err != nil {
		t.Fatalf("a decoded table's wire form does not decode: %v", err)
	}
	if table.Fingerprint(back) != table.Fingerprint(tab) || len(back.Rows) != len(tab.Rows) {
		t.Fatalf("wire round trip changed the table: %v vs %v", back, tab)
	}
	for i, row := range tab.Rows {
		for j, v := range row {
			if w := back.Rows[i][j]; w.Kind != v.Kind || w.Text() != v.Text() {
				t.Fatalf("cell (%d, %d) came back %#v, want %#v", i, j, w, v)
			}
		}
	}
}
