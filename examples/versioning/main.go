// Versioning: an evolving lake served by one long-lived session — the v3
// epoch lifecycle. Quarterly snapshots of a permit registry arrive over
// time (with a duplicate re-publication and a stale export, as real
// open-data portals have); the lake evolves through Apply batches, and the
// session's indexes follow each epoch incrementally instead of being
// rebuilt from scratch.
//
//	go run ./examples/versioning
package main

import (
	"context"
	"fmt"
	"strings"

	"gent"
)

// mkQuarter builds one quarterly snapshot covering permits [lo, hi).
func mkQuarter(name string, lo, hi int) *gent.Table {
	t := gent.NewTable(name, "permit", "street", "status")
	for i := lo; i < hi; i++ {
		status := "open"
		if i%3 == 0 {
			status = "closed"
		}
		t.AddRow(
			gent.S(fmt.Sprintf("PRM-%04d", i)),
			gent.S(fmt.Sprintf("%d Elm St", 100+i)),
			gent.S(status),
		)
	}
	return t
}

func main() {
	ctx := context.Background()
	l := gent.NewLake()

	// Epoch 1: the first three snapshots land in one Apply batch. Adjacent
	// snapshots overlap, and one was re-published twice (an exact
	// duplicate).
	e1, err := l.Apply(ctx,
		gent.Put(mkQuarter("permits_q1", 0, 40)),
		gent.Put(mkQuarter("permits_q2", 30, 70)),
		gent.Put(mkQuarter("permits_q2_republished", 30, 70)),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("epoch %v: %d tables\n", e1, l.Snapshot().Len())

	// One session serves every query; its indexes are built at the first
	// query of an epoch and maintained incrementally across epochs. Every
	// event of one run carries the epoch the run is pinned to.
	cfg := gent.DefaultConfig()
	cfg.Observer = gent.ObserverFunc(func(ev gent.ProgressEvent) {
		if ev.Kind == gent.EventPhaseDone && ev.Phase == gent.PhaseDiscovery {
			fmt.Printf("  [%v] discovery: %d candidates\n", ev.Epoch, ev.Count)
		}
	})
	session := gent.NewReclaimer(l, cfg)

	// The Source: the registry's published year view (union of snapshots).
	src := gent.NewTable("permits_2023", "permit", "street", "status")
	src.Key = []int{0}
	for i := 0; i < 100; i++ {
		status := "open"
		if i%3 == 0 {
			status = "closed"
		}
		src.AddRow(
			gent.S(fmt.Sprintf("PRM-%04d", i)),
			gent.S(fmt.Sprintf("%d Elm St", 100+i)),
			gent.S(status),
		)
	}

	res, err := session.ReclaimContext(ctx, src)
	if err != nil {
		panic(err)
	}
	fmt.Printf("at %v (Q1-Q2 only): EIS=%.3f Recall=%.3f\n",
		l.Epoch(), res.Report.EIS, res.Report.Recall)

	// Epoch 2: Q3 lands, a stale export (every status overwritten with
	// "unknown") sneaks in alongside it, and the registry renames the
	// republished copy. The session does not rebuild: the next query
	// inserts the new tables' postings and sketches and tombstones the
	// renamed one's old name — a delta proportional to the change, not to
	// the lake.
	stale := mkQuarter("permits_stale", 0, 100)
	for _, r := range stale.Rows {
		r[2] = gent.S("unknown")
	}
	e2, err := l.Apply(ctx,
		gent.Put(mkQuarter("permits_q3", 60, 100)),
		gent.Put(stale),
		gent.RenameTable("permits_q2_republished", "permits_q2_2024_mirror"),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("epoch %v: %d tables (indexes will catch up incrementally)\n", e2, l.Snapshot().Len())

	res, err = session.ReclaimContext(ctx, src)
	if err != nil {
		panic(err)
	}
	fmt.Printf("at %v (full year): EIS=%.3f Recall=%.3f Precision=%.3f perfect=%v\n",
		l.Epoch(), res.Report.EIS, res.Report.Recall, res.Report.Precision,
		res.Report.PerfectReclamation)
	fmt.Println("originating snapshots:")
	used := map[string]bool{}
	for _, c := range res.Originating {
		for _, s := range c.Sources {
			used[s] = true
		}
		fmt.Printf("  - %s\n", strings.Join(c.Sources, " ⋈ "))
	}
	if used["permits_stale"] && res.Report.Precision < 1 {
		fmt.Println("WARNING: stale statuses polluted the output")
	} else {
		fmt.Println("the stale export's wrong statuses never reached the output")
	}

	// Epoch 3: the stale export is dropped. Queries pin the snapshot they
	// start on, so a query racing this Apply would still complete on epoch
	// 2; this one starts after and sees epoch 3.
	e3, err := l.Apply(ctx, gent.Drop("permits_stale"))
	if err != nil {
		panic(err)
	}
	res, err = session.ReclaimContext(ctx, src)
	if err != nil {
		panic(err)
	}
	fmt.Printf("at %v (stale dropped): EIS=%.3f perfect=%v\n",
		e3, res.Report.EIS, res.Report.PerfectReclamation)
}
