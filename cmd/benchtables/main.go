// Command benchtables regenerates the reproduction's performance numbers:
// every classical problem timed under all three concurrency models, model
// microbenchmarks, the actor hot path (mailbox, dispatcher, observability
// and tracing variants of one Tell flood), the node-to-node wire, overload
// protection, explorer throughput and the cluster load harness. This is
// the quantitative side of the course's goal that students "investigate
// the efficiency of these implementations".
//
// Usage:
//
//	benchtables [-reps N] [-quick] [-json FILE]
//
// Every run measures every table. Each table's cases run interleaved
// within each repetition, after one unmeasured warm-up round, and each row
// reports the median of its per-repetition values. -quick divides the
// workloads by 4; -json writes the rows to FILE. The committed baseline is
// BENCH.json at the repository root:
//
//	go run ./cmd/benchtables -json BENCH.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/actors"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/metrics"
	_ "repro/internal/problems/registry"
	"repro/internal/threads"
	"repro/internal/trace"
)

// defaultReps is the -reps default; the regeneration command omits it.
const defaultReps = 3

// row is one measured number. The printed tables and BENCH.json are both
// made from rows, and (Table, Case, Unit) is unique within a run.
type row struct {
	Table string  `json:"table"`
	Case  string  `json:"case"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// report is the BENCH.json document.
type report struct {
	Command    string `json:"command"`
	Quick      bool   `json:"quick"`
	Scale      int    `json:"scale"`
	Reps       int    `json:"reps"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Rows       []row  `json:"rows"`
}

func main() {
	reps := flag.Int("reps", defaultReps, "measured repetitions per case (median reported)")
	quick := flag.Bool("quick", false, "smaller workloads")
	jsonPath := flag.String("json", "", "write every row to this file")
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "benchtables: -reps must be at least 1")
		os.Exit(2)
	}

	scale := 1
	if *quick {
		scale = 4
	}
	var rows []row
	for _, table := range []func(reps, scale int) []row{
		problemTable, microTable, tellFloodTable, remoteTable,
		wireTable, overloadTable, exploreTable, clusterTable,
	} {
		rs := table(*reps, scale)
		printTables(rs)
		rows = append(rows, rs...)
	}
	over := overheadRows(rows)
	printTables(over)
	rows = append(rows, over...)

	if *jsonPath != "" {
		rep := report{
			Command:    command(*quick, *reps, *jsonPath),
			Quick:      *quick,
			Scale:      scale,
			Reps:       *reps,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Rows:       rows,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		check(err, "write "+*jsonPath)
	}
}

// command is the invocation that regenerates a report with these flags.
func command(quick bool, reps int, path string) string {
	cmd := "go run ./cmd/benchtables"
	if quick {
		cmd += " -quick"
	}
	if reps != defaultReps {
		cmd += fmt.Sprintf(" -reps %d", reps)
	}
	return cmd + " -json " + path
}

// check exits on a failed measurement: a benchmark that cannot complete has
// no number to report.
func check(err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", what, err)
		os.Exit(1)
	}
}

// benchCase is one case of a table. run performs it once and returns what
// it measured; a returned row with an empty Case belongs to this case.
type benchCase struct {
	name string
	run  func() ([]row, error)
}

// measure is the one aggregation every table uses. It runs all cases once
// unmeasured (warm-up: page in code, grow the heap), then reps rounds with
// the cases interleaved within each round, so every case sees the same
// machine drift and ratios between cases stay honest. Each row's value is
// the median of its per-round values.
func measure(table string, reps int, cases []benchCase) []row {
	var keys []row
	vals := map[row][]float64{}
	for r := 0; r <= reps; r++ {
		for _, c := range cases {
			got, err := c.run()
			check(err, table+"/"+c.name)
			if r == 0 {
				continue
			}
			for _, g := range got {
				k := row{Table: table, Case: g.Case, Unit: g.Unit}
				if k.Case == "" {
					k.Case = c.name
				}
				if _, ok := vals[k]; !ok {
					keys = append(keys, k)
				}
				vals[k] = append(vals[k], g.Value)
			}
		}
	}
	for i, k := range keys {
		med, err := metrics.Median(vals[k])
		check(err, table+"/"+k.Case)
		keys[i].Value = med
	}
	return keys
}

// timed runs fn once and reports one row: per / elapsed seconds when unit
// is a rate, otherwise elapsed nanoseconds / per.
func timed(unit string, per int, fn func() error) func() ([]row, error) {
	return func() ([]row, error) {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		v := float64(d.Nanoseconds()) / float64(per)
		if strings.HasSuffix(unit, "/s") {
			v = float64(per) / d.Seconds()
		}
		return []row{{Unit: unit, Value: v}}, nil
	}
}

// titles heads each printed table.
var titles = map[string]string{
	"problems":   "CROSS-MODEL PERFORMANCE: classical problems, wall time in ms (EXPERIMENTS.md)",
	"micro":      "MODEL MICROBENCHMARKS",
	"tell flood": "ACTOR HOT PATH: Tell flood into one actor (docs/PERF.md)",
	"remote":     "REMOTE ACTORS: node-to-node wire (docs/REMOTE.md)",
	"wire":       "WIRE CODEC: one frame through the streaming codec (docs/REMOTE.md)",
	"overload":   "OVERLOAD PROTECTION: credit-limited flood vs offered load (docs/REMOTE.md)",
	"explore":    "EXPLORER THROUGHPUT: full state-space search (docs/PERF.md)",
	"cluster":    "CLUSTER SHARDING: presence load vs node kill (docs/CLUSTER.md)",
	"obs":        "INSTRUMENTATION OVERHEAD vs the untraced 8-sender flood (docs/OBSERVABILITY.md)",
	"trace":      "DISTRIBUTED TRACING OVERHEAD vs the untraced baselines (docs/OBSERVABILITY.md)",
}

// printTables prints rows one table at a time: a line per case, a column
// per unit. The problem table pivots models into columns instead and adds
// the fastest model.
func printTables(rows []row) {
	var tables []string
	for _, r := range rows {
		if !slices.Contains(tables, r.Table) {
			tables = append(tables, r.Table)
		}
	}
	for _, table := range tables {
		var lines, cols []string
		cells := map[[2]string]float64{}
		for _, r := range rows {
			if r.Table != table {
				continue
			}
			line, col := r.Case, r.Unit
			if table == "problems" {
				line, col, _ = strings.Cut(r.Case, "/")
			}
			if !slices.Contains(lines, line) {
				lines = append(lines, line)
			}
			if !slices.Contains(cols, col) {
				cols = append(cols, col)
			}
			cells[[2]string{line, col}] = r.Value
		}
		headers := append([]string{"Case"}, cols...)
		if table == "problems" {
			headers = append(headers, "fastest")
		}
		t := metrics.NewTable(titles[table], headers...)
		for _, line := range lines {
			out := []string{line}
			fastest := ""
			for _, col := range cols {
				v, ok := cells[[2]string{line, col}]
				if !ok {
					out = append(out, "-")
					continue
				}
				out = append(out, format(v))
				if fastest == "" || v < cells[[2]string{line, fastest}] {
					fastest = col
				}
			}
			if table == "problems" {
				out = append(out, fastest)
			}
			t.AddRow(out...)
		}
		fmt.Println(t)
	}
}

// format renders a value compactly: k/M suffixes for large numbers, no
// decimals from 100 up or for whole numbers, two decimals down to 1, and
// three significant digits below that.
func format(v float64) string {
	switch a := max(v, -v); {
	case a >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case a >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case a >= 100 || v == float64(int64(v)):
		return fmt.Sprintf("%.0f", v)
	case a >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// overheadRows derives the obs and trace tables: each instrumented case's
// cost relative to its untraced baseline, measured in the same interleaved
// group.
func overheadRows(rows []row) []row {
	value := func(table, c, unit string) float64 {
		for _, r := range rows {
			if r.Table == table && r.Case == c && r.Unit == unit {
				return r.Value
			}
		}
		panic("benchtables: no row " + table + "/" + c + "/" + unit)
	}
	var out []row
	baseFlood := value("tell flood", floodBaseline, "msgs/s")
	for _, c := range floodCases {
		if c.overhead != "" {
			rate := value("tell flood", c.name, "msgs/s")
			out = append(out, row{c.overhead, "tell flood, " + c.name, "% overhead", (baseFlood - rate) / baseFlood * 100})
		}
	}
	basePing := value("remote", pingBaseline, "ns/round-trip")
	for _, c := range pingCases {
		if c.sample != 0 {
			ns := value("remote", c.name, "ns/round-trip")
			out = append(out, row{"trace", c.name, "% overhead", (ns - basePing) / basePing * 100})
		}
	}
	return out
}

func problemTable(reps, scale int) []row {
	params := map[string]core.Params{
		"boundedbuffer":      {"producers": 4, "consumers": 4, "items": 2000 / scale, "capacity": 16},
		"diningphilosophers": {"philosophers": 5, "meals": 400 / scale},
		"readerswriters":     {"readers": 6, "writers": 2, "ops": 1000 / scale},
		"sleepingbarber":     {"barbers": 2, "chairs": 4, "customers": 2000 / scale},
		"partymatching":      {"pairs": 1000 / scale},
		"singlelanebridge":   {"red": 3, "blue": 3, "crossings": 200 / scale},
		"bookinventory":      {"titles": 10, "clients": 6, "ops": 1000 / scale, "initial": 20},
		"sumworkers":         {"workers": 8, "n": 400000 / scale},
		"threadpool":         {"workers": 4, "tasks": 4000 / scale, "queue": 16},
	}
	var cases []benchCase
	for _, name := range core.Default.Names() {
		spec, _ := core.Default.Get(name)
		if len(spec.Runs) < len(core.AllModels) {
			continue // cross-model rows need all three models (skips chaos variants)
		}
		for _, m := range core.AllModels {
			cases = append(cases, benchCase{name + "/" + m.String(), func() ([]row, error) {
				start := time.Now()
				_, err := spec.Run(m, params[name], 1)
				return []row{{Unit: "ms", Value: float64(time.Since(start)) / 1e6}}, err
			}})
		}
	}
	return measure("problems", reps, cases)
}

func microTable(reps, scale int) []row {
	n := 100000 / scale
	idle := 100000 / scale
	idleSpawn := func(mode actors.DispatchMode) func() ([]row, error) {
		return func() ([]row, error) {
			before := runtime.NumGoroutine()
			sys := actors.NewSystem(actors.Config{Dispatcher: mode})
			for i := 0; i < idle; i++ {
				sys.MustSpawn("idle", func(ctx *actors.Context, msg any) {})
			}
			perActor := float64(runtime.NumGoroutine()-before) / float64(idle)
			sys.Shutdown()
			return []row{{Unit: "goroutines/actor", Value: perActor}}, nil
		}
	}
	return measure("micro", reps, []benchCase{
		{"goroutine spawn+join (threads substrate)", timed("ns/op", n, func() error {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go wg.Done()
			}
			wg.Wait()
			return nil
		})},
		{"actor spawn+stop", timed("ns/op", n/10, func() error {
			sys := actors.NewSystem(actors.Config{})
			for i := 0; i < n/10; i++ {
				sys.MustSpawn("a", func(ctx *actors.Context, msg any) {})
			}
			sys.Shutdown()
			return nil
		})},
		{"coroutine create+drain", timed("ns/op", n/10, func() error {
			for i := 0; i < n/10; i++ {
				co := coro.New(func(y *coro.Yielder, in any) any { return in })
				if _, _, err := co.Resume(nil); err != nil {
					return err
				}
			}
			return nil
		})},
		{"monitor enter/exit", timed("ns/op", n, func() error {
			var m threads.Monitor
			for i := 0; i < n; i++ {
				m.Enter()
				m.Exit()
			}
			return nil
		})},
		{"actor message round trip", timed("ns/op", n/10, func() error {
			sys := actors.NewSystem(actors.Config{})
			defer sys.Shutdown()
			done := make(chan struct{})
			count := 0
			var echo *actors.Ref
			pinger := sys.MustSpawn("pinger", func(ctx *actors.Context, msg any) {
				count++
				if count >= n/10 {
					close(done)
					return
				}
				ctx.Send(echo, struct{}{})
			})
			echo = sys.MustSpawn("echo", func(ctx *actors.Context, msg any) { ctx.Reply(msg) })
			pinger.Tell(struct{}{})
			<-done
			return nil
		})},
		{"coroutine yield/resume round trip", timed("ns/op", n, func() error {
			co := coro.New(func(y *coro.Yielder, in any) any {
				for {
					y.Yield(nil)
				}
			})
			for i := 0; i < n; i++ {
				if _, _, err := co.Resume(nil); err != nil {
					return err
				}
			}
			return nil
		})},
		{fmt.Sprintf("spawn %dk idle actors (dedicated)", idle/1000), idleSpawn(actors.Dedicated)},
		{fmt.Sprintf("spawn %dk idle actors (pooled)", idle/1000), idleSpawn(actors.Pooled)},
	})
}

// floodBaseline is the tell flood every obs and trace case is compared
// against: the ring mailbox on a plain Config, 8 senders.
const floodBaseline = "ring, 8 senders"

// floodCases are the Tell flood variants. overhead names the derived table
// that reports a case's cost relative to floodBaseline.
var floodCases = []struct {
	name     string
	senders  int
	overhead string
	cfg      func() actors.Config
}{
	{"ring, 1 sender", 1, "", plainConfig},
	{floodBaseline, 8, "", plainConfig},
	{"ring + pooled dispatch, 8 senders", 8, "", func() actors.Config { return actors.Config{Dispatcher: actors.Pooled} }},
	{"obs, sample 1/64 (default)", 8, "obs", obsConfig(0, false)},
	{"obs + conservation ledger", 8, "obs", obsConfig(0, true)},
	{"obs, every message (sample 1)", 8, "obs", obsConfig(1, false)},
	{"traced 1/64 (default)", 8, "trace", tracedConfig(64)},
	{"traced every message", 8, "trace", tracedConfig(1)},
}

func plainConfig() actors.Config { return actors.Config{} }

func obsConfig(sample int, conserve bool) func() actors.Config {
	return func() actors.Config {
		o := actors.NewObs(metrics.NewRegistry(), "actors")
		o.Sample = sample
		o.Conserve = conserve
		return actors.Config{Obs: o}
	}
}

func tracedConfig(sample int) func() actors.Config {
	return func() actors.Config { return actors.Config{Tracer: trace.NewTracer(sample, 0)} }
}

// tellFloodTable measures the actor hot path: one Tell flood, timed from
// system start to shutdown, under every mailbox, dispatcher, observability
// and tracing configuration. Interleaving matters most here: obs and trace
// overhead are ratios against floodBaseline, and drift over the seconds a
// back-to-back sweep takes would read as fake overhead.
func tellFloodTable(reps, scale int) []row {
	n := 200000 / scale
	var cases []benchCase
	for _, c := range floodCases {
		cases = append(cases, benchCase{c.name, func() ([]row, error) {
			cfg := c.cfg()
			return timed("msgs/s", n, func() error { return tellFloodOnce(cfg, c.senders, n) })()
		}})
	}
	return measure("tell flood", reps, cases)
}

// tellFloodOnce floods one actor with n messages from the given number of
// concurrent senders through the public Tell path, once.
func tellFloodOnce(cfg actors.Config, senders, n int) error {
	sys := actors.NewSystem(cfg)
	defer sys.Shutdown()
	done := make(chan struct{})
	count := 0
	sink := sys.MustSpawn("sink", func(ctx *actors.Context, msg any) {
		count++
		if count == n {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		per := n / senders
		if s < n%senders {
			per++
		}
		wg.Add(1)
		go func(per int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sink.Tell(i)
			}
		}(per)
	}
	wg.Wait()
	<-done
	return nil
}
