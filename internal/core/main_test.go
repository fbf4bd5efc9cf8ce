package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: once
// every test has returned, the goroutine count has about a second to come
// back to what it was before the first one, and if it does not, every
// goroutine's stack is printed.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
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
