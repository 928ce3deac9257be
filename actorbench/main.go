// Command actorbench is the repository's benchmark: one process that runs a
// named workload against the exported APIs of the actor ladder (actors,
// remote, cluster, core + problems, pseudocode, study), checks every output,
// and prints every metric by name and unit.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash actorbench/run.sh --workload presence|stream|models \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 sets the workload up six times (setup_s is the median) and
// measures each set-up untraced for S/6 seconds; the end-to-end metrics are
// medians over the quiet half of the slices of all six (slices.go).
// --trace 1 sets up an untraced and a traced instance side by side and
// measures each for S/2 seconds in alternating phases (tracedOrder); it
// reports the per-layer metrics and writes the spans it kept to
// .bench_build/spans-<workload>.jsonl.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Everything above it is a human-readable report. Load comes from this one
// process over remote.MemNetwork: no sockets, GOMAXPROCS = nproc.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// record is workloads.json: the documented purpose, parameters and oracle of
// every workload, which is also the configuration the run uses.
type record struct {
	Workloads map[string]struct {
		Params   map[string]float64        `json:"params"`
		Retry    map[string]float64        `json:"retry"`
		Problems map[string]map[string]int `json:"problems"`
	} `json:"workloads"`
}

func loadRecord() (record, error) {
	var r record
	if err := json.Unmarshal(workloadsJSON, &r); err != nil {
		return r, fmt.Errorf("workloads.json: %w", err)
	}
	return r, nil
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// inject plants one fault of the named kind so that the workload's
	// oracle can be shown to trip (oracle_test.go): "drop" (stream: a
	// message is never sent), "badseq" (presence: one ack carries the wrong
	// Seq).
	inject string
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// run measures the workload for about d (closed loops stop issuing at
	// d; round-based workloads finish their round). spans is nil for an
	// untraced phase.
	run(d time.Duration, spans *spanLog) (*phase, error)
	// check runs the end-of-run oracles (ledgers) and returns the failures
	// they found, counted in ops.
	check() (int64, error)
	// layer adds the per-layer metrics this workload exposes, from the
	// untraced phase u and the traced phase t, to m.
	layer(m metricSet, u, t *phase)
	close()
}

// workload builds instances; traced turns on the program's own sampled
// tracer (actors.Config.Tracer) where the workload has actor systems.
type workload func(rec record, o options, traced bool) (instance, error)

var workloads = map[string]workload{
	"presence": newPresence,
	"stream":   newStream,
	"models":   newModels,
}

// phase is one measured interval of one instance.
type phase struct {
	ops     int64 // validated ops
	failed  int64 // ops that failed or returned a wrong result
	elapsed time.Duration
	slices  []slice // the validated ops' latencies (ns), CPU and allocations
	health  healthDelta
	spans   *spanLog    // the traced phases' benchmark spans (nil untraced)
	counts  layerCounts // the program's own counters over this phase
}

func (p *phase) attempted() int64 { return p.ops + p.failed }

// add folds phase o, measured after p, into p.
func (p *phase) add(o *phase) {
	p.ops += o.ops
	p.failed += o.failed
	p.elapsed += o.elapsed
	p.slices = append(p.slices, o.slices...)
	p.health.add(o.health)
	p.counts = p.counts.plus(o.counts, 1)
}

// lat merges every slice's latencies.
func (p *phase) lat() *hist {
	h := newHist()
	for _, s := range p.slices {
		h.merge(s.lat)
	}
	return h
}

// quiet returns the half of the slices holding ops in which the process got
// the most CPU time per wall second. Every workload is a closed loop that
// does the same work in each slice, so a slice in which the process got
// less CPU than in its others is most likely one in which the host ran
// something else (steal, a noisy neighbour); leaving those out keeps a
// burst of contention from moving the figures.
func (p *phase) quiet() []slice {
	var q []slice
	for _, s := range p.slices {
		if s.ops() > 0 && s.dur > 0 {
			q = append(q, s)
		}
	}
	util := func(s slice) float64 { return float64(s.cpuNS) / float64(s.dur) }
	sort.SliceStable(q, func(i, j int) bool { return util(q[i]) > util(q[j]) })
	return q[:(len(q)+1)/2]
}

// perSlice returns the median of f over the quiet slices.
func (p *phase) perSlice(f func(slice) float64) float64 {
	var v []float64
	for _, s := range p.quiet() {
		v = append(v, f(s))
	}
	return median(v)
}

func (p *phase) cpuPerOp() float64 {
	return p.perSlice(func(s slice) float64 { return float64(s.cpuNS) / float64(s.ops()) })
}

func (p *phase) opsPerS() float64 {
	return p.perSlice(func(s slice) float64 { return float64(s.ops()) / s.dur.Seconds() })
}

// quantile returns the latency q-quantile: the median of the quiet slices'
// own q-quantiles when each has ten samples beyond it, else the q-quantile
// of all the quiet slices' samples.
func (p *phase) quantile(q float64) float64 {
	quiet := p.quiet()
	h := newHist()
	for _, s := range quiet {
		if float64(s.ops())*(1-q) < 10 {
			for _, s := range quiet {
				h.merge(s.lat)
			}
			return h.quantile(q)
		}
	}
	return p.perSlice(func(s slice) float64 { return s.lat.quantile(q) })
}

// metricSet is the result's metrics: name → value and unit.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "presence, stream or models")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds (1-60)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || o.seconds > 60 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: actorbench --workload presence|stream|models --seed N --seconds 1-60 --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "actorbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "actorbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result.
func run(o options) (result, error) {
	rec, err := loadRecord()
	if err != nil {
		return result{}, err
	}
	fmt.Printf("actorbench: workload %s, seed %d, %ds, trace %v, GOMAXPROCS %d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	if o.trace {
		return runTraced(rec, o)
	}
	return runEndToEnd(rec, o)
}

// setupCount is how many times --trace 0 sets the workload up. Each set-up
// is measured for its share of the run, and the slices of all of them are
// pooled: one instance's luck (heap layout, GC pacing, how the link's
// batching settles) then moves the medians by a sixth at most. setup_s is
// the median set-up time.
const setupCount = 6

func runEndToEnd(rec record, o options) (result, error) {
	build := workloads[o.workload]
	var setups []float64
	var ledgerFailed int64
	p := &phase{}
	for i := 0; i < setupCount; i++ {
		settle()
		start := time.Now()
		inst, err := build(rec, o, false)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		settle()
		h := startHealth()
		ph, err := inst.run(time.Duration(o.seconds)*time.Second/setupCount, nil)
		health := h.stop()
		var failed int64
		if err == nil {
			ph.health = health
			failed, err = inst.check()
		}
		inst.close()
		if err != nil {
			return result{}, err
		}
		p.add(ph)
		fmt.Printf("instance %d: set-up %.3fs, %.1f ops/s, p50 %.4fms, p99 %.4fms, %.0f CPU-ns/op, GC CPU %.3f\n",
			i+1, setups[i], ph.opsPerS(), ph.quantile(0.5)/1e6, ph.quantile(0.99)/1e6,
			ph.cpuPerOp(), ph.health.gcCPUFraction())
		ledgerFailed += failed
	}
	res := result{
		Attempted: p.attempted(),
		Failed:    p.failed + ledgerFailed,
		Metrics:   metricSet{},
	}
	res.Correct = res.Failed == 0 && p.ops > 0
	m := res.Metrics
	m.set("ops_per_s", p.opsPerS(), "1/s")
	m.set("p50_ms", p.quantile(0.50)/1e6, "ms")
	m.set("p99_ms", p.quantile(0.99)/1e6, "ms")
	m.set("cpu_ns_per_op", p.cpuPerOp(), "ns")
	m.set("allocs_per_op", p.perSlice(func(s slice) float64 { return float64(s.allocs) / float64(s.ops()) }), "count")
	m.set("setup_s", median(setups), "s")
	m.set("max_rss_mb", p.health.maxRSSMB, "MB") // the process's peak over every set-up and phase

	lat := p.lat()
	fmt.Printf("ops %d validated, %d failed (fail_ratio %.6f) in %.3fs, %d slices\n",
		p.ops, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), p.elapsed.Seconds(), len(p.slices))
	var quiet int64
	for _, s := range p.quiet() {
		quiet += s.ops()
	}
	fmt.Printf("latency samples %d, %d of them in the quiet half of the slices (%d beyond p99); setups %s\n",
		lat.count(), quiet, quiet/100, formatFloats(setups, "s"))
	fmt.Printf("whole phase: %.1f ops/s, p50 %.4fms, p99 %.4fms, %.0f CPU-ns/op, %.2f allocs/op\n",
		float64(p.ops)/p.elapsed.Seconds(), lat.quantile(0.5)/1e6, lat.quantile(0.99)/1e6,
		float64(p.health.cpuNS)/float64(p.ops), float64(p.health.allocObjects)/float64(p.ops))
	rates := make([]float64, len(p.slices))
	cpus := make([]float64, len(p.slices))
	for i, s := range p.slices {
		rates[i] = float64(s.ops()) / s.dur.Seconds()
		cpus[i] = float64(s.cpuNS) / float64(s.dur)
	}
	fmt.Printf("ops/s by slice: %s\n", formatFloats(rates, ""))
	fmt.Printf("CPUs busy by slice (the quiet half has the most): %s\n", formatFloats(cpus, ""))
	printMetrics(m)
	return res, nil
}

// settle collects the garbage of earlier set-ups and returns it to the OS,
// so that it does not count in the next phase's GC work or peak RSS.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// tracedOrder is the order in which a traced run measures its untraced
// (false) and traced (true) instance. It is balanced (ABBA BAAB): a drift
// over the run, such as heap growth or the host getting busier, weighs on
// both instances alike, so their ratio is the cost of tracing.
var tracedOrder = []bool{false, true, true, false, true, false, false, true}

// runTraced measures an untraced and a traced instance of the workload side
// by side, in tracedOrder.
func runTraced(rec record, o options) (result, error) {
	build := workloads[o.workload]
	each := time.Duration(o.seconds) * time.Second / time.Duration(len(tracedOrder))
	uInst, err := build(rec, o, false)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer uInst.close()
	tInst, err := build(rec, o, true)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer tInst.close()

	spans := newSpanLog()
	u, t := &phase{}, &phase{spans: spans}
	for _, traced := range tracedOrder {
		inst, into, sp := uInst, u, (*spanLog)(nil)
		if traced {
			inst, into, sp = tInst, t, spans
		}
		settle()
		h := startHealth()
		ph, err := inst.run(each, sp)
		health := h.stop()
		if err != nil {
			return result{}, err
		}
		ph.health = health
		fmt.Printf("phase traced=%v: %d ops in %.3fs, %.1f ops/s, p50 %.4fms, %.0f CPU-ns/op\n",
			traced, ph.ops, ph.elapsed.Seconds(), ph.opsPerS(), ph.quantile(0.5)/1e6, ph.cpuPerOp())
		into.add(ph)
	}
	uFailed, err := uInst.check()
	if err != nil {
		return result{}, err
	}
	tFailed, err := tInst.check()
	if err != nil {
		return result{}, err
	}
	if err := spans.write(fmt.Sprintf(".bench_build/spans-%s.jsonl", o.workload)); err != nil {
		fmt.Fprintf(os.Stderr, "actorbench: writing spans: %v\n", err)
	}
	spans.report(os.Stdout)

	res := result{
		Attempted: u.attempted() + t.attempted(),
		Failed:    u.failed + t.failed + uFailed + tFailed,
		Metrics:   metricSet{},
	}
	violations := spans.violations()
	res.Correct = res.Failed == 0 && u.ops > 0 && t.ops > 0 && violations == 0
	m := res.Metrics
	for _, name := range perLayerNames {
		m.set(name, 0, perLayerUnit(name))
	}
	m.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	u.counts.metrics(u.ops, m)
	goMetrics(m, u)
	tInst.layer(m, u, t)
	if u.opsPerS() > 0 {
		m.set("trace.overhead_ratio", t.opsPerS()/u.opsPerS(), "ratio")
	}
	if len(m) != len(perLayerNames) {
		return result{}, fmt.Errorf("workload reported %d per-layer metrics, %d declared", len(m), len(perLayerNames))
	}
	fmt.Printf("untraced %d ops in %.3fs (%.0f/s); traced %d ops in %.3fs (%.0f/s); span violations %d\n",
		u.ops, u.elapsed.Seconds(), u.opsPerS(), t.ops, t.elapsed.Seconds(), t.opsPerS(), violations)
	printMetrics(m)
	return res, nil
}

// goMetrics fills the go.* metrics from the untraced phases' health samples.
func goMetrics(m metricSet, u *phase) {
	ops := float64(max(u.ops, 1))
	h := u.health
	m.set("go.gc_cpu_fraction", h.gcCPUFraction(), "ratio")
	m.set("go.bytes_per_op", float64(h.allocBytes)/ops, "B")
	m.set("go.gc_cycles_per_kop", float64(h.gcCycles)*1000/ops, "count")
	m.set("go.sched_latency_us_p99", h.schedQuantile(0.99)*1e6, "us")
	m.set("go.goroutines_peak", float64(h.goroutinesPeak), "count")
}

// perLayerNames lists every per-layer metric in BENCHMARK.json. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var perLayerNames = func() []string {
	names := []string{
		"actors.processed_per_op", "actors.deadletters_per_op",
		"actors.tell_ns_p50", "actors.tell_ns_p99",
		"actors.handler_us_p50", "actors.handler_us_p99",
		"actors.reply_leg_us_p50", "actors.reply_leg_us_p99",
		"actors.stage_mailbox_us_p99", "actors.goroutines_peak",
		"cluster.request_leg_us_p50", "cluster.request_leg_us_p99",
		"cluster.forwards_per_op", "cluster.off_driver_ratio",
		"cluster.parked_per_kop", "cluster.redeliveries_per_kop",
		"cluster.activations_timed", "cluster.stage_park_us_p99",
		"remote.frames_per_op", "remote.bytes_per_frame", "remote.frames_per_batch",
		"remote.credit_stalls_per_kframe", "remote.outbox_overflows",
		"remote.deliver_us_p50", "remote.deliver_us_p99",
		"remote.stage_wire_us_p50", "remote.stage_stall_us_p99",
	}
	for _, p := range modelProblems {
		for _, m := range modelNames {
			names = append(names, "models."+p+"."+m+"_ms")
		}
	}
	for _, m := range modelNames {
		names = append(names, "models."+m+"_ms")
	}
	return append(names, "fail_ratio",
		"go.gc_cpu_fraction", "go.bytes_per_op", "go.gc_cycles_per_kop",
		"go.sched_latency_us_p99", "go.goroutines_peak",
		"trace.overhead_ratio")
}()

// perLayerUnit derives a per-layer metric's unit from its name suffix.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_us_"):
		return "us"
	case strings.Contains(name, "_ns_"):
		return "ns"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_fraction"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_op"), strings.HasSuffix(name, "bytes_per_frame"):
		return "B"
	}
	return "count"
}

func printMetrics(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func formatFloats(v []float64, unit string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f%s", x, unit)
	}
	return strings.Join(parts, " ")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
