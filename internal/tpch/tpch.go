// Package tpch is a deterministic, seedable generator of the eight TPC-H
// tables (region, nation, supplier, customer, part, partsupp, orders,
// lineitem) at arbitrary scale. It substitutes for the official dbgen: the
// reclamation experiments only need realistic multi-table relational data
// with joinable keys, string and numeric columns, and controllable size.
//
// Two deliberate departures from stock TPC-H serve the data lake setting:
// foreign key columns share names with the primary keys they reference
// (custkey, nationkey, ...) so natural joins work without schema metadata,
// and key values are distinctive strings ("CUST#000007") so syntactic
// discovery cannot confuse them with other numeric columns.
package tpch

import (
	"context"
	"fmt"
	"math/rand"

	"gent/internal/lake"
	"gent/internal/table"
)

// Scale sizes a generated database. Base is the customer count; other tables
// scale proportionally as in TPC-H.
type Scale struct {
	Base int
	Seed int64
}

// Small / Med mirror the paper's TP-TR Small and TP-TR Med regimes scaled to
// test time; Large is produced by raising Base.
var (
	Small = Scale{Base: 30, Seed: 1}
	Med   = Scale{Base: 150, Seed: 2}
)

// TableNames lists the eight tables in generation order.
var TableNames = []string{
	"region", "nation", "supplier", "customer",
	"part", "partsupp", "orders", "lineitem",
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationNames = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
	"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
	"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var statuses = []string{"O", "F", "P"}
var partTypes = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var partMaterials = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
var returnFlags = []string{"R", "A", "N"}

// Generate builds the eight tables into a lake.
func Generate(s Scale) *lake.Lake {
	if s.Base <= 0 {
		s.Base = 30
	}
	r := rand.New(rand.NewSource(s.Seed))
	l := lake.New()
	var muts []lake.Mutation
	add := func(t *table.Table) { muts = append(muts, lake.Put(t)) }

	region := table.New("region", "regionkey", "r_name", "r_comment")
	for i, name := range regionNames {
		region.AddRow(key("REG", i), table.S(name), comment(r))
	}
	add(region)

	nation := table.New("nation", "nationkey", "n_name", "regionkey", "n_comment")
	for i, name := range nationNames {
		nation.AddRow(key("NAT", i), table.S(name), key("REG", i%len(regionNames)), comment(r))
	}
	add(nation)

	nSupp := max(2, s.Base/3)
	supplier := table.New("supplier", "suppkey", "s_name", "s_address", "nationkey", "s_phone", "s_acctbal")
	for i := 0; i < nSupp; i++ {
		supplier.AddRow(
			key("SUPP", i),
			table.S(fmt.Sprintf("Supplier#%06d", i)),
			address(r),
			key("NAT", r.Intn(len(nationNames))),
			phone(r),
			money(r, 10000),
		)
	}
	add(supplier)

	customer := table.New("customer", "custkey", "c_name", "c_address", "nationkey", "c_phone", "c_acctbal", "c_mktsegment")
	for i := 0; i < s.Base; i++ {
		customer.AddRow(
			key("CUST", i),
			table.S(fmt.Sprintf("Customer#%06d", i)),
			address(r),
			key("NAT", r.Intn(len(nationNames))),
			phone(r),
			money(r, 10000),
			table.S(segments[r.Intn(len(segments))]),
		)
	}
	add(customer)

	nPart := max(2, s.Base*2/3)
	part := table.New("part", "partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size", "p_retailprice")
	for i := 0; i < nPart; i++ {
		part.AddRow(
			key("PART", i),
			table.S(fmt.Sprintf("%s %s part#%05d",
				partTypes[r.Intn(len(partTypes))], partMaterials[r.Intn(len(partMaterials))], i)),
			table.S(fmt.Sprintf("Manufacturer#%d", 1+r.Intn(5))),
			table.S(fmt.Sprintf("Brand#%d%d", 1+r.Intn(5), 1+r.Intn(5))),
			table.S(partTypes[r.Intn(len(partTypes))]),
			table.N(float64(1+r.Intn(50))),
			money(r, 2000),
		)
	}
	add(part)

	partsupp := table.New("partsupp", "partkey", "suppkey", "ps_availqty", "ps_supplycost")
	for i := 0; i < nPart; i++ {
		for j := 0; j < 2; j++ {
			partsupp.AddRow(
				key("PART", i),
				key("SUPP", r.Intn(nSupp)),
				table.N(float64(1+r.Intn(9999))),
				money(r, 1000),
			)
		}
	}
	add(partsupp)

	nOrders := s.Base * 2
	orders := table.New("orders", "orderkey", "custkey", "o_orderstatus", "o_totalprice", "o_orderdate", "o_orderpriority")
	for i := 0; i < nOrders; i++ {
		orders.AddRow(
			key("ORD", i),
			key("CUST", r.Intn(s.Base)),
			table.S(statuses[r.Intn(len(statuses))]),
			money(r, 300000),
			date(r),
			table.S(priorities[r.Intn(len(priorities))]),
		)
	}
	add(orders)

	lineitem := table.New("lineitem", "orderkey", "partkey", "suppkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_returnflag", "l_shipdate")
	for i := 0; i < nOrders; i++ {
		lines := 1 + r.Intn(3)
		for ln := 0; ln < lines; ln++ {
			lineitem.AddRow(
				key("ORD", i),
				key("PART", r.Intn(nPart)),
				key("SUPP", r.Intn(nSupp)),
				table.N(float64(ln+1)),
				table.N(float64(1+r.Intn(50))),
				money(r, 90000),
				table.N(float64(r.Intn(11))/100),
				table.S(returnFlags[r.Intn(len(returnFlags))]),
				date(r),
			)
		}
	}
	add(lineitem)

	// One Apply publishes the whole corpus as a single epoch turn; the
	// generator's tables are well-formed by construction.
	if _, err := l.Apply(context.Background(), muts...); err != nil {
		panic(err)
	}
	return l
}

func key(prefix string, i int) table.Value {
	return table.S(fmt.Sprintf("%s#%06d", prefix, i))
}

func comment(r *rand.Rand) table.Value {
	words := []string{"carefully", "quickly", "final", "pending", "ironic",
		"express", "regular", "special", "bold", "even", "requests", "deposits",
		"accounts", "packages", "instructions", "theodolites"}
	n := 3 + r.Intn(4)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += words[r.Intn(len(words))]
	}
	return table.S(out)
}

func address(r *rand.Rand) table.Value {
	return table.S(fmt.Sprintf("%d %s St Apt %d", 1+r.Intn(999), streets[r.Intn(len(streets))], 1+r.Intn(99)))
}

var streets = []string{"Oak", "Maple", "Cedar", "Pine", "Elm", "Main", "Lake", "Hill", "Park", "River"}

func phone(r *rand.Rand) table.Value {
	return table.S(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+r.Intn(25), r.Intn(1000), r.Intn(1000), r.Intn(10000)))
}

func money(r *rand.Rand, ceil int) table.Value {
	return table.N(float64(r.Intn(ceil*100)) / 100)
}

func date(r *rand.Rand) table.Value {
	return table.S(fmt.Sprintf("%04d-%02d-%02d", 1992+r.Intn(7), 1+r.Intn(12), 1+r.Intn(28)))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
