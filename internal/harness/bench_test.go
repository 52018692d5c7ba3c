package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestBenchExploreRoundTrip: the quick suite runs, serializes, parses
// back identically, and compares clean against itself.
func TestBenchExploreRoundTrip(t *testing.T) {
	r, err := BenchExplore(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("empty bench suite")
	}
	for _, row := range r.Rows {
		if row.Executions < 1 || row.ConsistencyChecks+row.SinkExtensions < 1 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(r.Rows) || back.Suite != r.Suite {
		t.Fatalf("round trip lost rows: %d != %d", len(back.Rows), len(r.Rows))
	}
	if err := CompareBaseline(r, back, 0.25); err != nil {
		t.Errorf("suite must compare clean against itself: %v", err)
	}
}

// TestBenchBaselineRowOrder: the committed BENCH_explore.json lists its
// rows in the order BenchExplore writes them (benchJobs, full suite), so
// regenerating the file with hmc-bench -json shows value changes only,
// not a reordering.
func TestBenchBaselineRowOrder(t *testing.T) {
	f, err := os.Open("../../BENCH_explore.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := ReadBenchReport(f)
	if err != nil {
		t.Fatal(err)
	}
	jobs := benchJobs(Options{})
	if len(base.Rows) != len(jobs) {
		t.Fatalf("BENCH_explore.json has %d rows, benchJobs %d", len(base.Rows), len(jobs))
	}
	for i, j := range jobs {
		if row := base.Rows[i]; row.Name != j.p.Name || row.Model != j.model {
			t.Errorf("row %d is %s/%s, benchJobs writes %s/%s", i, row.Name, row.Model, j.p.Name, j.model)
		}
	}
}

// TestBenchSinkSplitKeepsForwardSteps: admitting sink extensions without
// a model check moves forward steps from consistency_checks to
// sink_extensions and changes nothing else, so on every tracked row the
// two together equal the consistency checks the engine made when it
// checked every step (the BENCH_explore.json values before sinks were
// split off).
func TestBenchSinkSplitKeepsForwardSteps(t *testing.T) {
	checkedEveryStep := map[string]int{
		"SB(8)/sc":      638,
		"SB(8)/tso":     638,
		"indexer(3)/sc": 3,
		"inc(3,2)/sc":   583,
		"LB(8)/imm":     1252,
		"LB(8)/arm":     1252,
		"SB(10)/tso":    2558,
		"inc(3,3)/sc":   16833,
	}
	jobs := benchJobs(Options{})
	if len(jobs) != len(checkedEveryStep) {
		t.Fatalf("benchJobs has %d rows, the table %d", len(jobs), len(checkedEveryStep))
	}
	for _, j := range jobs {
		key := j.p.Name + "/" + j.model
		want, ok := checkedEveryStep[key]
		if !ok {
			t.Errorf("%s: no pre-split check count", key)
			continue
		}
		res, _, err := explore("bench", j.p, j.model)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.ConsistencyChecks + res.SinkExtensions; got != want {
			t.Errorf("%s: %d checks + %d sink extensions = %d, want %d",
				key, res.ConsistencyChecks, res.SinkExtensions, got, want)
		}
		if res.SinkExtensions == 0 && want > 0 {
			t.Errorf("%s: no sink extensions admitted", key)
		}
	}
}

// TestCompareBaseline pins the gate semantics on synthetic reports:
// growth within tolerance and shrinkage pass; growth beyond tolerance
// and a vanished tracked row fail, naming the offender.
func TestCompareBaseline(t *testing.T) {
	base := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 300, RevisitsTried: 40},
		{Name: "B", Model: "tso", Executions: 10, States: 20, ConsistencyChecks: 30},
	}}
	ok := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 120, States: 150, ConsistencyChecks: 300, RevisitsTried: 50},
		{Name: "B", Model: "tso", Executions: 5, States: 20, ConsistencyChecks: 30},
	}}
	if err := CompareBaseline(ok, base, 0.25); err != nil {
		t.Errorf("within-tolerance growth and shrinkage must pass: %v", err)
	}
	regressed := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 500, RevisitsTried: 40},
		{Name: "B", Model: "tso", Executions: 10, States: 20, ConsistencyChecks: 30},
	}}
	err := CompareBaseline(regressed, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "A/sc: consistency_checks regressed") {
		t.Errorf("counter regression must fail naming the row: %v", err)
	}
	missing := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 300, RevisitsTried: 40},
	}}
	err = CompareBaseline(missing, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "B/tso") {
		t.Errorf("vanished tracked row must fail: %v", err)
	}
	// Wall-clock never gates.
	slow := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 300, RevisitsTried: 40, NS: 1 << 40},
		{Name: "B", Model: "tso", Executions: 10, States: 20, ConsistencyChecks: 30, NS: 1 << 40},
	}}
	if err := CompareBaseline(slow, base, 0.25); err != nil {
		t.Errorf("wall-clock must not gate: %v", err)
	}
}

// TestCompareBaselineAllocs pins the allocation gate: allocs/exec growth
// beyond tolerance fails naming the row, growth within tolerance and
// shrinkage pass, and a baseline without the field (an old BENCH JSON)
// never trips the gate no matter what the current run allocates.
func TestCompareBaselineAllocs(t *testing.T) {
	base := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 300, AllocsPerExec: 1000},
	}}
	ok := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 300, AllocsPerExec: 1200},
	}}
	if err := CompareBaseline(ok, base, 0.25); err != nil {
		t.Errorf("within-tolerance allocation growth must pass: %v", err)
	}
	better := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 300, AllocsPerExec: 100},
	}}
	if err := CompareBaseline(better, base, 0.25); err != nil {
		t.Errorf("allocation shrinkage must pass: %v", err)
	}
	bloated := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 300, AllocsPerExec: 2000},
	}}
	err := CompareBaseline(bloated, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "A/sc: allocs_per_exec regressed") {
		t.Errorf("allocation regression must fail naming the row: %v", err)
	}
	oldBase := &BenchReport{Rows: []BenchRow{
		{Name: "A", Model: "sc", Executions: 100, States: 200, ConsistencyChecks: 300},
	}}
	if err := CompareBaseline(bloated, oldBase, 0.25); err != nil {
		t.Errorf("baseline without the allocs field must not gate: %v", err)
	}
}
