// Package client is the typed Go client of the gentd HTTP API. Requests and
// responses are the exact wire shapes the server package defines (both sides
// import them, so they cannot drift), and failures come back as *Error —
// carrying the HTTP status, the pipeline phase the server's *core.Error was
// tagged with, and a code that unwraps to the corresponding core/lake
// sentinel, so errors.Is(err, core.ErrNoKey) keeps working across the wire.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"gent/internal/core"
	"gent/internal/server"
	"gent/internal/table"
)

// Client calls one gentd instance.
type Client struct {
	base string
	hc   *http.Client
}

// New creates a client for the server at base (e.g. "http://127.0.0.1:8080").
// A nil httpClient uses http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// Error is a server-reported failure. Unwrap exposes the sentinel its wire
// code maps to (core.ErrNoKey, context.DeadlineExceeded, ...), so callers
// match causes exactly as they would against the in-process API.
type Error struct {
	// Status is the HTTP status the server answered with.
	Status int
	// Code is the stable wire code ("no_key", "deadline", "overloaded", ...).
	Code string
	// Phase is the pipeline phase the failure was tagged with, when any.
	Phase core.Phase
	// Source names the source table being reclaimed, when known.
	Source string
	// Msg is the server's message.
	Msg string
	// RetryAfterSec is the server's Retry-After hint on 429, in seconds.
	RetryAfterSec int
}

// Error formats as "gentd [<status>]: <message>"; the server's message
// already names the phase and source when there are any.
func (e *Error) Error() string { return fmt.Sprintf("gentd [%d]: %s", e.Status, e.Msg) }

// Unwrap maps the wire code back to its sentinel; nil for unknown codes.
func (e *Error) Unwrap() error { return server.SentinelFor(e.Code) }

// Result is one reclamation as the client sees it.
type Result struct {
	server.ReclaimResponse
	// Cached reports whether the server answered from its epoch-keyed
	// result cache (the X-Gent-Cache header).
	Cached bool
}

// Table materializes the reclaimed rows; nil when the request omitted them.
func (r *Result) Table() (*table.Table, error) {
	if r.Reclaimed == nil {
		return nil, nil
	}
	return server.DecodeTable(r.Reclaimed)
}

// do posts body to path and decodes a JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) (http.Header, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeErrorBody(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, fmt.Errorf("client: decoding response: %w", err)
		}
	}
	return resp.Header, nil
}

// decodeErrorBody turns a non-200 response into a *Error.
func decodeErrorBody(resp *http.Response) error {
	out := &Error{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		out.RetryAfterSec, _ = strconv.Atoi(ra)
	}
	var wire server.ErrorJSON
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wire); err == nil && wire.Error != "" {
		out.Msg = wire.Error
		out.Code = wire.Code
		out.Phase = core.Phase(wire.Phase)
		out.Source = wire.Source
	} else {
		out.Msg = http.StatusText(resp.StatusCode)
	}
	return out
}

// Reclaim reclaims one source table. opts may be nil.
func (c *Client) Reclaim(ctx context.Context, src *table.Table, opts *server.ReclaimOptions) (*Result, error) {
	req := server.ReclaimRequest{Source: server.EncodeTable(src), Options: opts}
	var out Result
	hdr, err := c.do(ctx, http.MethodPost, "/v1/reclaim", req, &out.ReclaimResponse)
	if err != nil {
		return nil, err
	}
	out.Cached = hdr.Get("X-Gent-Cache") == "hit"
	return &out, nil
}

// Item is one source's outcome within a batch or stream.
type Item struct {
	// Index is the source's position in the request.
	Index int
	// Result is nil when Err is set.
	Result *Result
	// Err is the source's own failure, a *Error.
	Err error
}

// decodeItem converts a wire StreamItem.
func decodeItem(wi server.StreamItem) Item {
	item := Item{Index: wi.Index}
	switch {
	case wi.Error != nil:
		item.Err = &Error{
			Status: http.StatusOK, // per-item failure inside a 200 body
			Code:   wi.Error.Code,
			Phase:  core.Phase(wi.Error.Phase),
			Source: wi.Error.Source,
			Msg:    wi.Error.Error,
		}
	case wi.Result != nil:
		item.Result = &Result{ReclaimResponse: *wi.Result}
	}
	return item
}

// ReclaimBatch reclaims every source, items back in input order, each
// failing alone.
func (c *Client) ReclaimBatch(ctx context.Context, srcs []*table.Table, opts *server.ReclaimOptions) ([]Item, error) {
	req := server.BatchRequest{Sources: encodeSources(srcs), Options: opts}
	var out server.BatchResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/reclaim/batch", req, &out); err != nil {
		return nil, err
	}
	items := make([]Item, 0, len(out.Items))
	for _, wi := range out.Items {
		items = append(items, decodeItem(wi))
	}
	return items, nil
}

// ReclaimStream reclaims every source and calls fn with each item as its
// NDJSON line arrives — completion order, not input order. fn returning
// false stops the stream (the server cancels the remaining work when the
// connection closes).
func (c *Client) ReclaimStream(ctx context.Context, srcs []*table.Table, opts *server.ReclaimOptions, fn func(Item) bool) error {
	req := server.BatchRequest{Sources: encodeSources(srcs), Options: opts}
	b, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("client: encoding request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/reclaim/stream", bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErrorBody(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var wi server.StreamItem
		if err := json.Unmarshal(line, &wi); err != nil {
			return fmt.Errorf("client: decoding stream line: %w", err)
		}
		if !fn(decodeItem(wi)) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: reading stream: %w", err)
	}
	return nil
}

func encodeSources(srcs []*table.Table) []*server.TableJSON {
	out := make([]*server.TableJSON, len(srcs))
	for i, s := range srcs {
		out[i] = server.EncodeTable(s)
	}
	return out
}

// Mutation builders for Apply.

// Put registers (or replaces) a table at the next epoch.
func Put(t *table.Table) server.MutationJSON {
	return server.MutationJSON{Op: "put", Table: server.EncodeTable(t)}
}

// Drop removes the named table at the next epoch.
func Drop(name string) server.MutationJSON { return server.MutationJSON{Op: "drop", Name: name} }

// Rename moves a table to a new name at the next epoch.
func Rename(from, to string) server.MutationJSON {
	return server.MutationJSON{Op: "rename", From: from, To: to}
}

// Apply submits one all-or-nothing mutation batch and returns the epoch it
// produced.
func (c *Client) Apply(ctx context.Context, muts ...server.MutationJSON) (*server.ApplyResponse, error) {
	var out server.ApplyResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/lake/apply", server.ApplyRequest{Mutations: muts}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SaveIndexes persists the server session's indexes under a server-side
// directory.
func (c *Client) SaveIndexes(ctx context.Context, dir string) (*server.IndexResponse, error) {
	var out server.IndexResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/index/save", server.IndexRequest{Dir: dir}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// LoadIndexes adopts persisted indexes from a server-side directory. The
// response's Action is "loaded" (adopted as-is) or "built" (unusable, so
// built and saved).
func (c *Client) LoadIndexes(ctx context.Context, dir string) (*server.IndexResponse, error) {
	var out server.IndexResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/index/load", server.IndexRequest{Dir: dir}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches /v1/stats. fps additionally requests every table's content
// fingerprint at the current epoch.
func (c *Client) Stats(ctx context.Context, fps bool) (*server.StatsResponse, error) {
	path := "/v1/stats"
	if fps {
		path += "?fps=1"
	}
	var out server.StatsResponse
	if _, err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health probes /healthz; nil means the server is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return &Error{Status: resp.StatusCode, Msg: "unhealthy"}
	}
	return nil
}

// Metrics scrapes /metrics and returns every sample keyed by its full name
// including labels (e.g. `gentd_requests_total{endpoint="reclaim",
// status="200"}`). Convenient for smokes and tests; a real deployment points
// Prometheus at the endpoint instead.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeErrorBody(resp)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: reading metrics: %w", err)
	}
	return out, nil
}
