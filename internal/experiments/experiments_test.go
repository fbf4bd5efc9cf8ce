package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gent/internal/benchmark"
)

// tinySet builds the smallest useful benchmark set for test time.
func tinySet(t *testing.T) *BenchmarkSet {
	t.Helper()
	o := DefaultSetOptions()
	o.SmallBase = 16
	o.MedBase = 30
	o.LargeBase = 40
	o.Distractors = 30
	o.T2DTables = 30
	o.WDCTables = 60
	o.MaxSourceRows = 60
	set, err := BuildSet(o)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestTable1Stats(t *testing.T) {
	set := tinySet(t)
	rows := Table1(set)
	if len(rows) != 6 {
		t.Fatalf("Table I needs 6 benchmarks, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Stats.Tables == 0 {
			t.Errorf("%s is empty", r.Benchmark)
		}
	}
	if out := RenderTable1(rows); !strings.Contains(out, "TP-TR Small") {
		t.Error("render missing benchmark name")
	}
}

// pinTol is how far a pinned value may drift: the pipeline is deterministic,
// so only float summation noise is forgiven.
const pinTol = 1e-9

// scores is a method row's non-timing columns: average precision, recall and
// EIS, perfect reclamations, sources.
func scores(r MethodScores) []float64 {
	return []float64{r.Avg.Precision, r.Avg.Recall, r.Avg.EIS, float64(r.Perfect), float64(r.Sources)}
}

// checkPinned compares every row against its recorded values. A row that
// moved, vanished or is new fails with a line for the pinned map.
func checkPinned(t *testing.T, got, want map[string][]float64) {
	t.Helper()
	line := func(k string, vs []float64) string {
		s := make([]string, len(vs))
		for i, v := range vs {
			s[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		return fmt.Sprintf("%q: {%s},", k, strings.Join(s, ", "))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= pinTol }
	for k, w := range want {
		if g := got[k]; !slices.EqualFunc(g, w, near) {
			t.Errorf("pinned row moved:\n got  %s\n want %s", line(k, g), line(k, w))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unpinned row: %s", line(k, g))
		}
	}
}

func TestTable3HeadlineShape(t *testing.T) {
	// The paper's headline: Gen-T outperforms every baseline on TP-TR Small
	// in precision and EIS, and reclaims the most sources perfectly.
	set := tinySet(t)
	res := Table3Context(context.Background(), set, DefaultRunOptions())
	got := make(map[string][]float64, len(res.Rows))
	byMethod := make(map[Method]MethodScores, len(res.Rows))
	for _, row := range res.Rows {
		got[string(row.Method)] = scores(row)
		byMethod[row.Method] = row
	}
	checkPinned(t, got, map[string][]float64{
		"ALITE w/ int. set":          {0.20006483775881176, 0.9979757085020242, 0.9996626180836707, 0, 26},
		"ALITE":                      {0.14321174531681952, 0.9053952991452991, 0.9873931623931623, 0, 26},
		"ALITE-PS w/ int. set":       {0.22361826386209258, 0.7692307692307693, 0.9423076923076923, 0, 26},
		"ALITE-PS":                   {0.27740607363327613, 0.9855769230769231, 0.9963942307692307, 0, 26},
		"Auto-Pipeline* w/ int. set": {0.23650122753671593, 0.4535678137651822, 0.894331163780177, 0, 26},
		"Auto-Pipeline*":             {0.21787714034277586, 0.45089687359424196, 0.8974273457414904, 0, 26},
		"Gen-T":                      {0.7854880163758472, 0.9855769230769231, 0.9981971153846154, 12, 26},
		"Ver w/ int. set":            {0.21545932952578706, 0.822537112010796, 0.9320550307392412, 0, 26},
	})
	gent := byMethod[MethodGenT]
	for m, row := range byMethod {
		if m == MethodGenT {
			continue
		}
		if row.Avg.Precision > gent.Avg.Precision+1e-9 {
			t.Errorf("%s precision %.3f beats Gen-T %.3f", m, row.Avg.Precision, gent.Avg.Precision)
		}
		if row.Perfect > gent.Perfect {
			t.Errorf("%s perfectly reclaims %d > Gen-T %d", m, row.Perfect, gent.Perfect)
		}
	}
	t.Logf("\n%s", RenderEffectiveness(res))
}

// TestPaperFiguresPinned runs Table II and Figures 6, 8 and 9 on the tiny set
// and pins every non-timing value, so a performance change cannot move the
// paper's numbers unnoticed.
func TestPaperFiguresPinned(t *testing.T) {
	set := tinySet(t)
	ctx := context.Background()
	opts := DefaultRunOptions()

	t.Run("Table2", func(t *testing.T) {
		got := map[string][]float64{}
		for _, res := range Table2Context(ctx, set, opts) {
			for _, row := range res.Rows {
				got[res.Benchmark+"/"+string(row.Method)] = scores(row)
			}
		}
		checkPinned(t, got, map[string][]float64{
			"SANTOS Large+TP-TR Med/ALITE w/ int. set":    {0.1972352062714043, 0.945759368836292, 0.9916173570019725, 0, 26},
			"SANTOS Large+TP-TR Med/ALITE":                {0.13704486725646842, 0.6640368178829716, 0.9061037146614068, 0, 26},
			"SANTOS Large+TP-TR Med/ALITE-PS w/ int. set": {0.2309104956460499, 0.7692307692307693, 0.9423076923076923, 0, 26},
			"SANTOS Large+TP-TR Med/ALITE-PS":             {0.2488827380639799, 0.7586620644312952, 0.9189924391847468, 0, 26},
			"SANTOS Large+TP-TR Med/Gen-T":                {0.6656988804127011, 0.7586620644312952, 0.9209278435239975, 11, 26},
			"TP-TR Large/ALITE-PS w/ int. set":            {0.22607471997807044, 0.7692307692307693, 0.9423076923076923, 0, 26},
			"TP-TR Large/ALITE-PS":                        {0.26957371146369, 0.9467455621301777, 0.986439842209073, 0, 26},
			"TP-TR Large/Gen-T":                           {0.7580643538956642, 0.9403353057199213, 0.987836949375411, 10, 26},
			"TP-TR Med/ALITE w/ int. set":                 {0.1972352062714043, 0.945759368836292, 0.9916173570019725, 0, 26},
			"TP-TR Med/ALITE":                             {0.11330238807236345, 0.81232741617357, 0.9704199539776462, 0, 26},
			"TP-TR Med/ALITE-PS w/ int. set":              {0.2309104956460499, 0.7692307692307693, 0.9423076923076923, 0, 26},
			"TP-TR Med/ALITE-PS":                          {0.28072355224076007, 0.9960552268244576, 0.9990138067061144, 0, 26},
			"TP-TR Med/Gen-T":                             {0.8396235815588878, 0.9960552268244576, 0.9995069033530573, 14, 26},
		})
	})
	t.Run("Figure6", func(t *testing.T) {
		got := map[string][]float64{}
		for _, r := range Figure6(ctx, set, []Method{MethodALITEPS, MethodGenT}, opts) {
			got[fmt.Sprintf("%s/%s/%s", r.Benchmark, r.Class, r.Method)] = []float64{r.Recall, r.Precision, float64(r.Sources)}
		}
		checkPinned(t, got, map[string][]float64{
			"TP-TR Large/Multiple Joins+Union/ALITE-PS": {0.8846153846153846, 0.1485132603727167, 8},
			"TP-TR Large/Multiple Joins+Union/Gen-T":    {0.8846153846153846, 0.6920492489267408, 8},
			"TP-TR Large/One Join+Union/ALITE-PS":       {0.9423076923076923, 0.20409506689858908, 8},
			"TP-TR Large/One Join+Union/Gen-T":          {0.9423076923076923, 0.6341599012341679, 8},
			"TP-TR Large/Project/Select+Union/ALITE-PS": {1, 0.41880498798854937, 10},
			"TP-TR Large/Project/Select+Union/Gen-T":    {0.9833333333333334, 0.9099999999999999, 10},
			"TP-TR Med/Multiple Joins+Union/ALITE-PS":   {0.9871794871794872, 0.18399563271947475, 8},
			"TP-TR Med/Multiple Joins+Union/Gen-T":      {0.9871794871794872, 0.6376043158735507, 8},
			"TP-TR Med/One Join+Union/ALITE-PS":         {1, 0.2154489692024923, 8},
			"TP-TR Med/One Join+Union/Gen-T":            {1, 0.841172324192835, 8},
			"TP-TR Med/Project/Select+Union/ALITE-PS":   {1, 0.41032555428840256, 10},
			"TP-TR Med/Project/Select+Union/Gen-T":      {1, 1, 10},
			"TP-TR Small/Multiple Joins+Union/ALITE-PS": {0.953125, 0.1712252562102222, 8},
			"TP-TR Small/Multiple Joins+Union/Gen-T":    {0.953125, 0.5362642795845128, 8},
			"TP-TR Small/One Join+Union/ALITE-PS":       {1, 0.2072588473284656, 8},
			"TP-TR Small/One Join+Union/Gen-T":          {1, 0.766571773636991, 8},
			"TP-TR Small/Project/Select+Union/ALITE-PS": {1, 0.41846850861556745, 10},
			"TP-TR Small/Project/Select+Union/Gen-T":    {1, 1, 10},
		})
	})
	t.Run("Figure8", func(t *testing.T) {
		got := map[string][]float64{}
		for _, r := range Figure8(ctx, set, opts) {
			got[r.Benchmark+"/"+string(r.Method)] = []float64{r.AvgSizeRatio, float64(r.Timeouts)}
		}
		checkPinned(t, got, map[string][]float64{
			"SANTOS Large+TP-TR Med/ALITE":    {284.52387808772426, 17},
			"SANTOS Large+TP-TR Med/ALITE-PS": {3.1415243730628344, 0},
			"SANTOS Large+TP-TR Med/Gen-T":    {1.1494082840236688, 0},
			"TP-TR Large/ALITE-PS":            {4.494177011077464, 0},
			"TP-TR Large/Gen-T":               {1.390948775960088, 0},
			"TP-TR Med/ALITE":                 {583.2527578191039, 25},
			"TP-TR Med/ALITE-PS":              {4.343191039729502, 0},
			"TP-TR Med/Gen-T":                 {1.2897928994082841, 0},
			"TP-TR Small/ALITE":               {558.2518660500076, 22},
			"TP-TR Small/ALITE-PS":            {4.4206933198380565, 0},
			"TP-TR Small/Auto-Pipeline*":      {2.3350343004948266, 26},
			"TP-TR Small/Gen-T":               {1.377561291048133, 0},
		})
	})
	t.Run("Figure9", func(t *testing.T) {
		got := map[string][]float64{}
		for _, r := range Figure9(ctx, set, opts) {
			got[r.Source] = []float64{r.GenT.Precision, r.GenT.Recall, r.GenT.EIS, r.ALITE.Precision, r.ALITE.Recall, r.ALITE.EIS}
		}
		checkPinned(t, got, map[string][]float64{
			"q00_psu_customer":         {1, 1, 1, 0.40540540540540543, 1, 1},
			"q01_psu_orders":           {1, 1, 1, 0.358974358974359, 1, 1},
			"q02_psu_part":             {1, 1, 1, 0.4090909090909091, 1, 1},
			"q03_psu_supplier":         {1, 1, 1, 0.3333333333333333, 1, 1},
			"q04_psu_nation":           {1, 1, 1, 0.49019607843137253, 1, 1},
			"q05_psu_customer":         {1, 1, 1, 0.5263157894736842, 1, 1},
			"q06_psu_orders":           {1, 1, 1, 0.358974358974359, 1, 1},
			"q07_psu_part":             {1, 1, 1, 0.34615384615384615, 1, 1},
			"q08_psu_supplier":         {1, 1, 1, 0.38461538461538464, 1, 1},
			"q09_psu_nation":           {1, 1, 1, 0.49019607843137253, 1, 1},
			"q10_join_orders_customer": {1, 1, 1, 0.16997167138810199, 1, 1},
			"q11_join_customer_nation": {1, 1, 1, 0.21739130434782608, 1, 1},
			"q12_join_supplier_nation": {0.625, 1, 1, 0.18181818181818182, 1, 1},
			"q13_join_partsupp_part":   {0.6842105263157895, 1, 1, 0.20418848167539266, 1, 1},
			"q14_join_lineitem_orders": {1, 1, 1, 0.2510460251046025, 1, 1},
			"q15_join_nation_region":   {0.7142857142857143, 1, 1, 0.26595744680851063, 1, 1},
			"q16_join_orders_customer": {0.7058823529411765, 1, 1, 0.2158273381294964, 1, 1},
			"q17_join_customer_nation": {1, 1, 1, 0.21739130434782608, 1, 1},
			"q18_multi_orders":         {0.6896551724137931, 1, 1, 0.27149321266968324, 1, 1},
			"q19_multi_supplier":       {0.47619047619047616, 1, 1, 0.10638297872340426, 1, 1},
			"q20_multi_partsupp":       {0.975, 1, 1, 0.18309859154929578, 1, 1},
			"q21_multi_lineitem":       {0.7058823529411765, 1, 1, 0.2510460251046025, 1, 1},
			"q22_multi_customer":       {0.7692307692307693, 1, 1, 0.11152416356877323, 1, 1},
			"q23_multi_orders":         {0.5084745762711864, 1, 1, 0.27149321266968324, 1, 1},
			"q24_multi_supplier":       {0.6666666666666666, 1, 1, 0.18181818181818182, 1, 1},
			"q25_multi_partsupp":       {0.30973451327433627, 0.8974358974358975, 0.9871794871794872, 0.09510869565217392, 0.8974358974358975, 0.9743589743589743},
		})
	})
}

// TestFigure7Pinned runs the Figure 7 noise sweep (erroneous and
// nullified values at 10 % and 90 %) and pins Gen-T's precision and EIS at
// every point. The pinned curve has the paper's shape: precision falls as
// more values are nullified.
func TestFigure7Pinned(t *testing.T) {
	o := DefaultSetOptions()
	o.MedBase = 24
	o.MaxSourceRows = 40
	points, err := Figure7(context.Background(), o, []int{10, 90}, DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]float64{}
	for _, p := range points {
		got[fmt.Sprintf("%s/%d", p.Sweep, p.Percent)] = []float64{p.Precision, p.EIS}
	}
	checkPinned(t, got, map[string][]float64{
		"erroneous/10": {0.7513717029769148, 0.9986057692307692},
		"erroneous/90": {0.9863782051282052, 0.998397435897436},
		"nullified/10": {0.856835204033846, 1},
		"nullified/90": {0.1448384290065916, 0.8131330128205131},
	})
	t.Logf("\n%s", RenderFigure7(points))
}

// TestTable4AndT2DSelf pins Table IV (every method's non-timing scores on
// the T2D/WDC-style corpus) and the T2D self-reclamation counts: sources
// tried, perfect reclamations, duplicates found, multi-table reclamations.
func TestTable4AndT2DSelf(t *testing.T) {
	corpus := benchmark.BuildT2D(40, 4, 2, 23)
	res := Table4Context(context.Background(), corpus, DefaultRunOptions())
	got := make(map[string][]float64, len(res.Rows))
	for _, row := range res.Rows {
		got[string(row.Method)] = scores(row)
	}
	checkPinned(t, got, map[string][]float64{
		"ALITE":          {0.07408405119351277, 1, 1, 0, 4},
		"ALITE-PS":       {0.07823711615007038, 1, 1, 0, 4},
		"Auto-Pipeline*": {1, 1, 1, 4, 4},
		"Gen-T":          {1, 1, 1, 4, 4},
	})
	t.Logf("\n%s", RenderEffectiveness(res))

	self := T2DSelfReclamation(context.Background(), corpus, DefaultRunOptions())
	checkPinned(t, map[string][]float64{"T2D self-reclamation": {
		float64(self.SourcesTried), float64(self.PerfectReclamations),
		float64(self.DuplicatesFound), float64(self.MultiTable),
	}}, map[string][]float64{"T2D self-reclamation": {40, 16, 12, 4}})
	t.Logf("\n%s", RenderT2DSelf(self))
}

func TestAblations(t *testing.T) {
	o := benchmark.DefaultTPTROptions()
	o.Scale.Base = 20
	o.MaxSourceRows = 40
	b, err := benchmark.BuildTPTR("ablation", o)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultRunOptions()
	ctx := context.Background()

	enc := AblationMatrixEncoding(ctx, b, opts)
	if enc.With.EIS+1e-9 < enc.Without.EIS {
		t.Errorf("three-valued EIS %.3f below two-valued %.3f", enc.With.EIS, enc.Without.EIS)
	}
	trav := AblationTraversal(ctx, b, opts)
	if trav.With.Precision+1e-9 < trav.Without.Precision {
		t.Errorf("traversal pruning lowered precision: %.3f vs %.3f",
			trav.With.Precision, trav.Without.Precision)
	}
	div := AblationDiversify(ctx, b, opts)
	guard := AblationGuardedOps(ctx, b, opts)
	if guard.With.EIS+1e-9 < guard.Without.EIS {
		t.Errorf("guarded integration EIS %.3f below plain FD %.3f",
			guard.With.EIS, guard.Without.EIS)
	}
	for _, a := range []AblationRow{enc, trav, div, guard} {
		t.Logf("\n%s", RenderAblation(a))
	}
}
