package alite

import (
	"testing"

	"gent/internal/metrics"
	"gent/internal/table"
)

// TestIntegratePSKeepsKeylessTables covers the integrating-set regime: a
// table without the source key (here: customer attributes for an
// order-keyed source) must still contribute through full disjunction's
// complementation on shared non-key columns.
func TestIntegratePSKeepsKeylessTables(t *testing.T) {
	src := table.New("S", "orderid", "cust", "city", "total")
	src.Key = []int{0}
	src.AddRow(table.S("o1"), table.S("c1"), table.S("Boston"), table.N(10))
	src.AddRow(table.S("o2"), table.S("c2"), table.S("Worcester"), table.N(20))

	orders := table.New("orders", "orderid", "cust", "total")
	orders.AddRow(table.S("o1"), table.S("c1"), table.N(10))
	orders.AddRow(table.S("o2"), table.S("c2"), table.N(20))

	// No orderid here: would have been dropped by a strict ProjectSelect.
	customers := table.New("customers", "cust", "city")
	customers.AddRow(table.S("c1"), table.S("Boston"))
	customers.AddRow(table.S("c2"), table.S("Worcester"))

	res := IntegratePS(src, []*table.Table{orders, customers}, Options{})
	rec := metrics.Evaluate(src, res.Table).Recall
	if rec != 1 {
		t.Errorf("keyless table not integrated: recall = %v\n%s", rec, res.Table)
	}
}

// TestIntegratePSDropsIrrelevantTables: a table sharing no source columns
// contributes nothing and must vanish in projection.
func TestIntegratePSDropsIrrelevantTables(t *testing.T) {
	src := table.New("S", "k", "v")
	src.Key = []int{0}
	src.AddRow(table.S("k1"), table.S("v1"))
	junk := table.New("junk", "x", "y")
	junk.AddRow(table.S("a"), table.S("b"))
	res := IntegratePS(src, []*table.Table{junk}, Options{})
	if len(res.Table.Rows) != 0 {
		t.Errorf("irrelevant table produced rows:\n%s", res.Table)
	}
}
