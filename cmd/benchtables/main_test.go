package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// TestMeasureReportsMedian feeds scripted per-round values through the one
// aggregation every table uses: the warm-up round is discarded, cases are
// interleaved within each round, and each row holds the median of its
// measured rounds — not the last round and not the best.
func TestMeasureReportsMedian(t *testing.T) {
	var order []string
	script := func(name string, vals ...float64) benchCase {
		i := 0
		return benchCase{name, func() ([]row, error) {
			order = append(order, name)
			v := vals[i]
			i++
			return []row{{Unit: "ns/op", Value: v}, {Case: name + " twin", Unit: "x", Value: -v}}, nil
		}}
	}
	rows := measure("t", 3, []benchCase{
		script("a", 100, 3, 1, 2), // warm-up 100 would move the median to 2.5
		script("b", 0, 10, 30, 20),
	})
	if want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}; !slices.Equal(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	want := []row{
		{"t", "a", "ns/op", 2},
		{"t", "a twin", "x", -2},
		{"t", "b", "ns/op", 20},
		{"t", "b twin", "x", -20},
	}
	if !slices.Equal(rows, want) {
		t.Fatalf("rows %v, want %v", rows, want)
	}
}

// TestBenchJSONSchema checks the committed baseline (and, when BENCH_JSON
// names another file, that one too): it parses, every row is complete and
// finite, no (table, case, unit) repeats, every table is present, and the
// header's command regenerates the file.
func TestBenchJSONSchema(t *testing.T) {
	checkReport(t, "../../BENCH.json", "go run ./cmd/benchtables -json BENCH.json")
	if path := os.Getenv("BENCH_JSON"); path != "" {
		checkReport(t, path, "")
	}
}

// checkReport validates the report at path; an empty wantCmd expects the
// command implied by the report's own header.
func checkReport(t *testing.T, path, wantCmd string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if wantCmd == "" {
		wantCmd = command(rep.Quick, rep.Reps, path)
	}
	if rep.Command != wantCmd {
		t.Errorf("%s: command %q, want %q", path, rep.Command, wantCmd)
	}
	if rep.Reps < 1 || rep.Scale < 1 || rep.GOMAXPROCS < 1 || rep.GoVersion == "" {
		t.Errorf("%s: incomplete header %+v", path, rep)
	}
	seen := map[row]bool{}
	tables := map[string]bool{}
	for _, r := range rep.Rows {
		if r.Table == "" || r.Case == "" || r.Unit == "" || math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			t.Errorf("%s: incomplete row %+v", path, r)
		}
		key := row{Table: r.Table, Case: r.Case, Unit: r.Unit}
		if seen[key] {
			t.Errorf("%s: duplicate row %s / %s / %s", path, r.Table, r.Case, r.Unit)
		}
		seen[key] = true
		tables[r.Table] = true
	}
	for table := range titles {
		if !tables[table] {
			t.Errorf("%s: no rows for table %q", path, table)
		}
	}
}
