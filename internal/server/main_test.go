package server

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: once
// every test has returned, the goroutine count has about a second to come
// back to what it was before the first one, and if it does not, every
// goroutine's stack is printed. An idle keep-alive connection of a test
// client holds a read and a write goroutine until it is closed, so the
// count starts only after http.DefaultTransport's idle connections (those
// of a client.New given no http.Client) are closed; each httptest.Server's
// Close, which every test defers, closes its own client's.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "goroutines leaked: %d before the tests, %d after\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}
