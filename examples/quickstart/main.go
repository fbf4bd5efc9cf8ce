// Quickstart: reclaim a small Source Table from an in-memory lake using the
// public gent API — the paper's Figure 3 running example, end to end, on the
// context-first surface: a deadline, and a progress observer set on the
// default configuration.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"time"

	"gent"
)

func main() {
	// The data lake: three autonomous tables about the same applicants.
	// Table C's "Gender" column contradicts reality — exactly the kind of
	// misleading table reclamation must cope with.
	l := gent.NewLake()

	a := gent.NewTable("education", "id", "person", "degree")
	a.AddRow(gent.S("id0"), gent.S("Smith"), gent.S("Bachelors"))
	a.AddRow(gent.S("id1"), gent.S("Brown"), gent.Null)
	a.AddRow(gent.S("id2"), gent.S("Wang"), gent.S("High School"))

	b := gent.NewTable("ages", "person", "years")
	b.AddRow(gent.S("Smith"), gent.N(27))
	b.AddRow(gent.S("Brown"), gent.N(24))
	b.AddRow(gent.S("Wang"), gent.N(32))

	c := gent.NewTable("genders", "person", "sex")
	c.AddRow(gent.S("Smith"), gent.S("Male"))
	c.AddRow(gent.S("Brown"), gent.S("Male"))
	c.AddRow(gent.S("Wang"), gent.S("Male"))

	// One Apply publishes all three tables as a single epoch turn; Apply is
	// the lake's only mutator.
	if _, err := l.Apply(context.Background(), gent.Put(a), gent.Put(b), gent.Put(c)); err != nil {
		panic(err)
	}

	// The Source Table the analyst wants to verify (key: ID). Note the
	// correct null — Smith's gender is genuinely unknown.
	src := gent.NewTable("applicants", "ID", "Name", "Age", "Gender", "Education")
	src.Key = []int{0}
	src.AddRow(gent.S("id0"), gent.S("Smith"), gent.N(27), gent.Null, gent.S("Bachelors"))
	src.AddRow(gent.S("id1"), gent.S("Brown"), gent.N(24), gent.S("Male"), gent.S("Masters"))
	src.AddRow(gent.S("id2"), gent.S("Wang"), gent.N(32), gent.S("Female"), gent.S("High School"))

	// Reclaim with a deadline (a pathological query cannot hang the caller)
	// and an observer that narrates each phase as it completes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg := gent.DefaultConfig()
	cfg.Observer = gent.ObserverFunc(func(ev gent.ProgressEvent) {
		if ev.Kind == gent.EventPhaseDone {
			fmt.Printf("  [%s done in %s]\n", ev.Phase, ev.Elapsed.Round(time.Microsecond))
		}
	})
	res, err := gent.ReclaimContext(ctx, l, src, cfg)
	if err != nil {
		panic(err)
	}

	fmt.Println("originating tables:")
	for _, cand := range res.Originating {
		fmt.Printf("  %v\n", cand.Sources)
	}
	fmt.Printf("\nreclaimed table:\n%s\n", res.Reclaimed)
	fmt.Printf("EIS=%.3f  Recall=%.3f  Precision=%.3f  Inst-Div=%.3f\n",
		res.Report.EIS, res.Report.Recall, res.Report.Precision, res.Report.InstDiv)
	fmt.Println("\nValues the lake could not confirm stay null (Brown's Masters,")
	fmt.Println("Wang's gender) — and the contradicting genders table was not")
	fmt.Println("allowed to overwrite Smith's correct null.")
}
