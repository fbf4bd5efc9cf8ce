// Server: the network lifecycle end to end, in one process. A lake is
// served by gentd's HTTP surface on a loopback listener, and the typed
// client walks the serving contract: a cold query (cache miss), the same
// query again (served from the epoch-keyed result cache), an Apply rolling
// the lake to a new epoch (which invalidates the cache), the query once
// more on the new catalog, and finally a graceful drain.
//
//	go run ./examples/server
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"gent"
	"gent/internal/server/client"
)

func main() {
	ctx := context.Background()

	// A small lake: two clean vertical partitions of the source and noise.
	src := gent.NewTable("staff", "id", "name", "team", "grade")
	src.Key = []int{0}
	for i := 0; i < 10; i++ {
		src.AddRow(
			gent.S(fmt.Sprintf("E%02d", i)),
			gent.S(fmt.Sprintf("person-%d", i)),
			gent.S(fmt.Sprintf("team-%d", i%3)),
			gent.N(float64(5+i%4)),
		)
	}
	left := src.Project("id", "name", "team")
	left.Name = "dir_people"
	left.Key = nil
	right := src.Project("id", "grade")
	right.Name = "dir_grades"
	right.Key = nil
	l := gent.NewLake()
	if _, err := l.Apply(ctx, gent.Put(left), gent.Put(right)); err != nil {
		panic(err)
	}

	// The server: one session on a port. The zero config bounds admission
	// off the session and enables the result cache.
	srv := gent.NewServer(gent.NewReclaimer(l, gent.DefaultConfig()), gent.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %d tables at %s\n", l.Snapshot().Len(), base)

	c := client.New(base, nil)

	// Cold: the full pipeline runs; the response says which epoch it pinned.
	r1, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cold  query: epoch %s EIS=%.3f cached=%v\n", r1.Epoch, r1.Metrics.EIS, r1.Cached)

	// Warm: the identical question at the same epoch is a cache hit — no
	// pipeline work at all.
	r2, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("warm  query: epoch %s EIS=%.3f cached=%v\n", r2.Epoch, r2.Metrics.EIS, r2.Cached)

	// A mutation rolls the epoch; the next Apply is the cache flush.
	extra := gent.NewTable("dir_audit", "id", "note")
	extra.AddRow(gent.S("E00"), gent.S("reviewed"))
	ar, err := c.Apply(ctx, client.Put(extra))
	if err != nil {
		panic(err)
	}
	fmt.Printf("apply      : epoch %s, %d tables\n", ar.Epoch, ar.Tables)

	r3, err := c.Reclaim(ctx, src, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("fresh query: epoch %s EIS=%.3f cached=%v\n", r3.Epoch, r3.Metrics.EIS, r3.Cached)

	stats, err := c.Stats(ctx, false)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cache      : hits=%d misses=%d invalidations=%d\n",
		stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Invalidations)

	// Graceful exit: drain (health goes 503, in-flight work finishes), then
	// close the listener.
	if err := srv.Drain(ctx); err != nil {
		panic(err)
	}
	if err := c.Health(ctx); err != nil {
		fmt.Println("drained    : /healthz now refuses (as a balancer should see)")
	}
	if err := hs.Shutdown(ctx); err != nil {
		panic(err)
	}
}
