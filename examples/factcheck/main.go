// Factcheck: the paper's motivating scenario (Section I, Figure 1). A news
// article reports tech-company workforce demographics; a user who only has a
// single company's diversity report sees contradicting numbers. Table
// reclamation answers: can any combination of lake tables reproduce the
// article's table — and from where do its values originate?
//
//	go run ./examples/factcheck
package main

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"gent"
)

func main() {
	l := gent.NewLake()

	// Worldwide ethnicity stats per company and year (matches the article).
	ethnicity := gent.NewTable("world_ethnicity",
		"company", "year", "pct_white", "pct_asian", "pct_black")
	add := func(t *gent.Table, vals ...gent.Value) { t.AddRow(vals...) }
	add(ethnicity, gent.S("Microsoft"), gent.N(2021), gent.N(54), gent.N(21), gent.N(13))
	add(ethnicity, gent.S("Microsoft"), gent.N(2020), gent.N(53), gent.N(20), gent.N(12))
	add(ethnicity, gent.S("Amazon"), gent.N(2021), gent.N(54), gent.N(21), gent.N(12))
	add(ethnicity, gent.S("Google"), gent.N(2021), gent.N(51), gent.N(24), gent.N(7))

	// Worldwide headcounts per company and year.
	employees := gent.NewTable("world_employees", "company", "year", "total_emps")
	add(employees, gent.S("Microsoft"), gent.N(2021), gent.N(181000))
	add(employees, gent.S("Microsoft"), gent.N(2020), gent.N(166000))
	add(employees, gent.S("Amazon"), gent.N(2021), gent.N(1608000))
	add(employees, gent.S("Google"), gent.N(2021), gent.N(156500))

	// The user's own US-only diversity report — numbers that *contradict*
	// the article because they cover a different population.
	usReport := gent.NewTable("us_diversity_report",
		"company", "pct_white", "pct_asian", "pct_black", "total_emps")
	add(usReport, gent.S("Microsoft"), gent.N(48.7), gent.N(35.4), gent.N(5.7), gent.N(103000))

	// Unrelated lake noise.
	stocks := gent.NewTable("stock_prices", "company", "price")
	add(stocks, gent.S("Microsoft"), gent.N(310))
	add(stocks, gent.S("Amazon"), gent.N(3300))

	// Publish the lake in one epoch turn via the v3 mutation surface.
	if _, err := l.Apply(context.Background(),
		gent.Put(ethnicity), gent.Put(employees), gent.Put(usReport), gent.Put(stocks)); err != nil {
		panic(err)
	}

	// The news article's table (the Source to reclaim), keyed by company.
	article := gent.NewTable("news_article",
		"company", "pct_white", "pct_asian", "pct_black", "total_emps")
	article.Key = []int{0}
	add(article, gent.S("Microsoft"), gent.N(54), gent.N(21), gent.N(13), gent.N(181000))
	add(article, gent.S("Amazon"), gent.N(54), gent.N(21), gent.N(12), gent.N(1608000))
	add(article, gent.S("Google"), gent.N(51), gent.N(24), gent.N(7), gent.N(156500))

	// A fact-check is a served query: require the lake to actually hold
	// evidence (no candidates = "cannot verify", a typed error) instead of
	// silently scoring an all-null table.
	cfg := gent.DefaultConfig()
	cfg.RequireCandidates = true
	res, err := gent.ReclaimContext(context.Background(), l, article, cfg)
	if errors.Is(err, gent.ErrNoCandidates) {
		fmt.Println("the lake holds no evidence about this table")
		return
	}
	if err != nil {
		panic(err)
	}

	fmt.Println("Can the lake reproduce the article's table?")
	fmt.Printf("  EIS=%.3f  Recall=%.3f  Precision=%.3f  perfect=%v\n\n",
		res.Report.EIS, res.Report.Recall, res.Report.Precision,
		res.Report.PerfectReclamation)
	fmt.Println("Originating tables (where the article's values come from):")
	for _, cand := range res.Originating {
		fmt.Printf("  - %s\n", strings.Join(cand.Sources, " ⋈ "))
	}
	fmt.Printf("\nReclaimed table:\n%s\n", res.Reclaimed)
	fmt.Println("The article is reproducible from the *worldwide* tables —")
	fmt.Println("not from the US-only diversity report. The contradiction is a")
	fmt.Println("difference in population, not an error.")
}
