package benchmark

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"gent/internal/lake"
	"gent/internal/table"
)

// This file generates the open-data-shaped corpus behind the `large` preset:
// a lake whose shape follows what open-data portals (and the table-union
// benchmarks built from them) actually look like. Three properties matter for
// a storage-tier benchmark and are modeled here:
//
//   - heavy row-count skew: most tables are small extracts, a thin tail is
//     orders of magnitude larger (a log-uniform distribution, so the tail —
//     not the median — dominates the corpus's byte footprint);
//   - domain-clustered vocabulary: tables belong to portal domains
//     (transit, permits, health, ...) that share column vocabularies, so
//     value overlap across tables is real and the inverted index has dense
//     postings to compress — uniform random values would make compression
//     and discovery both trivially easy;
//   - a few portal-wide columns (years, agencies, district codes) that occur
//     in nearly every table, producing the very dense posting lists the
//     bitmap encoding exists for.
//
// The corpus is adversarial volume for discovery (like AddDistractors) but
// with realistic density; reclaimable content comes from composing it with a
// TP-TR benchmark (BuildLargePreset).

// LargeCorpusTables is the table count of the full `large` preset — the
// acceptance corpus for beyond-RAM reclamation. Tests and smoke runs scale
// it down; cmd/benchgen -preset large and the acceptance benchmark use it
// as-is.
const LargeCorpusTables = 100_000

// openDomains are the portal domains. Each carries its own entity vocabulary;
// the shared pools below cut across all of them.
var openDomains = []struct {
	name     string
	entities []string
	measures []string
}{
	{"transit", []string{"route", "stop", "line", "depot", "fare", "headway", "ridership"},
		[]string{"boardings", "alightings", "on_time_pct", "miles"}},
	{"permits", []string{"parcel", "permit", "applicant", "contractor", "inspection"},
		[]string{"valuation", "fee", "units", "sqft"}},
	{"health", []string{"facility", "provider", "license", "inspection", "violation"},
		[]string{"beds", "score", "cases", "rate"}},
	{"education", []string{"school", "district", "grade", "cohort", "program"},
		[]string{"enrollment", "attendance_pct", "graduates", "budget"}},
	{"finance", []string{"fund", "department", "vendor", "contract", "invoice"},
		[]string{"amount", "balance", "encumbered", "spent"}},
	{"safety", []string{"incident", "station", "unit", "call_type", "beat"},
		[]string{"responses", "response_time", "injuries", "units_dispatched"}},
	{"environment", []string{"site", "sensor", "basin", "species", "sample"},
		[]string{"reading", "ph", "turbidity", "flow"}},
	{"housing", []string{"building", "owner", "complaint", "registration", "unit"},
		[]string{"units", "violations", "rent", "assessed_value"}},
}

// Portal-wide pools: values that show up in nearly every table of every
// domain, giving the index its densest postings.
var (
	openYears     = []string{"2017", "2018", "2019", "2020", "2021", "2022", "2023", "2024"}
	openAgencies  = []string{"DOT", "DPH", "DOE", "DOF", "FDNY", "DEP", "HPD", "DOB", "PARKS", "DCAS"}
	openDistricts = []string{"D01", "D02", "D03", "D04", "D05", "D06", "D07", "D08", "D09", "D10", "D11", "D12"}
	openStatuses  = []string{"active", "closed", "pending", "expired", "renewed"}
)

// openRows draws a row count from a log-uniform distribution over
// [min, max): the open-data shape, where the tail carries most of the bytes.
// With min 4 and max 256 the median lands near 32 but the mean near 61 —
// many small extracts, a heavy tail.
func openRows(r *rand.Rand, min, max int) int {
	lo, hi := math.Log(float64(min)), math.Log(float64(max))
	return int(math.Exp(lo + r.Float64()*(hi-lo)))
}

// AddOpenData draws n open-data-portal-shaped tables and adds the valid
// ones to the lake: a draw can pick the same measure column twice, and the
// lake refuses such a table (table.Validate). The whole batch lands as one
// epoch turn. Generation is deterministic in (n, seed), and a skipped draw
// still consumes its share of the random stream.
func AddOpenData(l *lake.Lake, n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	muts := make([]lake.Mutation, 0, n)
	for i := 0; i < n; i++ {
		if t := openTable(r, i); t.Validate() == nil {
			muts = append(muts, lake.Put(t))
		}
	}
	if _, err := l.Apply(context.Background(), muts...); err != nil {
		panic(err)
	}
}

// openTable generates one portal table: an entity-ID column, two or three
// domain-vocabulary columns, one or two portal-wide columns, and a couple of
// numeric measures.
func openTable(r *rand.Rand, i int) *table.Table {
	dom := openDomains[r.Intn(len(openDomains))]
	entity := dom.entities[r.Intn(len(dom.entities))]

	cols := []string{entity + "_id", entity, "status"}
	if r.Intn(2) == 0 {
		cols = append(cols, "agency")
	}
	if r.Intn(2) == 0 {
		cols = append(cols, "district")
	}
	cols = append(cols, "year")
	nm := 1 + r.Intn(2)
	for m := 0; m < nm; m++ {
		cols = append(cols, dom.measures[(r.Intn(len(dom.measures))+m)%len(dom.measures)])
	}

	t := table.New(fmt.Sprintf("%s_%s_%05d", dom.name, entity, i), cols...)
	rows := openRows(r, 4, 256)
	// Entity IDs are drawn from a per-domain space much smaller than the
	// corpus, so the same IDs recur across tables of a domain — the overlap
	// discovery sees on real portals.
	idSpace := 200 + r.Intn(1800)
	for j := 0; j < rows; j++ {
		row := make(table.Row, 0, len(cols))
		row = append(row,
			table.S(fmt.Sprintf("%s-%04d", entity, r.Intn(idSpace))),
			table.S(fmt.Sprintf("%s %s", dom.name, dom.entities[r.Intn(len(dom.entities))])),
			table.S(openStatuses[r.Intn(len(openStatuses))]))
		for _, c := range cols[3 : len(cols)-nm] {
			switch c {
			case "agency":
				row = append(row, table.S(openAgencies[r.Intn(len(openAgencies))]))
			case "district":
				row = append(row, table.S(openDistricts[r.Intn(len(openDistricts))]))
			case "year":
				row = append(row, table.S(openYears[r.Intn(len(openYears))]))
			}
		}
		for m := 0; m < nm; m++ {
			row = append(row, table.N(math.Floor(r.Float64()*1e4)/10))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// BuildLargePreset composes the `large` corpus: a TP-TR benchmark (the
// reclaimable core — its Sources stay exactly reclaimable) embedded in
// open-data volume up to the requested table count, less the open-data draws
// AddOpenData skips as invalid (about one in eight). cmd/benchgen -preset
// large materializes it at LargeCorpusTables; tests and benchmarks pass a
// smaller count (the shape is identical, only the volume scales).
func BuildLargePreset(tables int, seed int64) (*TPTR, error) {
	opts := DefaultTPTROptions()
	opts.Scale.Seed = seed
	opts.Seed = seed
	b, err := BuildTPTR("tp-tr", opts)
	if err != nil {
		return nil, err
	}
	if extra := tables - b.Lake.Snapshot().Len(); extra > 0 {
		AddOpenData(b.Lake, extra, seed+3)
	}
	return b, nil
}
