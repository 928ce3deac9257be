// Package harness is the cluster load harness: it boots a local 3–5 node
// cluster over the in-process transport, multiplexes a large population of
// simulated chat/presence clients onto a fixed set of presence grains, and
// measures three things the cluster layer promises:
//
//   - steady-state throughput (acked operations and wire frames per second),
//   - tail latency while a rebalance is in flight (one node killed mid-load),
//   - recovery time: from the kill to the first successful operation against
//     a grain the dead node was hosting.
//
// cmd/loadgen is the CLI wrapper (full-scale runs, committed baseline in
// BENCH_cluster.json); cmd/benchtables runs the same harness at smoke
// scale. Clients are simulated: each is an ID whose presence updates ride
// AskRetry against its grain, driven by a bounded worker pool — a million
// clients is a million distinct IDs acknowledged end to end, not a million
// goroutines.
package harness

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/trace"
)

// Presence is one simulated client's presence update: client Client's Seq'th
// heartbeat to its presence grain.
type Presence struct {
	Client int64
	Seq    int64
}

// PresenceAck acknowledges a presence update.
type PresenceAck struct {
	Seq int64
}

func init() {
	remote.RegisterType(Presence{})
	remote.RegisterType(PresenceAck{})
}

// Config sizes one harness run.
type Config struct {
	Nodes        int   // cluster size, clamped to [3, 5]
	Clients      int64 // simulated client population (distinct IDs)
	Grains       int   // presence grains the clients multiplex onto
	Workers      int   // driver goroutines (bounded concurrency)
	Shards       int   // ring size
	RebalanceOps int64 // operations driven through the kill window
	Kill         bool  // kill one node after the steady phase
	Seed         int64
	// HeartbeatInterval / HeartbeatTimeout / SuspectAfter shape failure
	// detection (and hence recovery time); zero takes defaults scaled for a
	// saturated local run — the timeout in particular must outlast the
	// scheduler stalls a full-throttle worker pool inflicts on the link
	// goroutines, or false suspicions thrash the ring mid-measurement.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	SuspectAfter      time.Duration
	// TraceSample, when > 0, turns on distributed tracing on every node:
	// 1 in TraceSample client operations originates a trace context that
	// rides the envelope across forwards, handoffs and the wire, and the
	// report gains a Trace section (assembled cross-node traces, slowest
	// first, with per-stage attribution). 1 traces every operation.
	TraceSample int
}

func (c Config) withDefaults() Config {
	if c.Nodes < 3 {
		c.Nodes = 3
	}
	if c.Nodes > 5 {
		c.Nodes = 5
	}
	if c.Clients <= 0 {
		c.Clients = 100_000
	}
	if c.Grains <= 0 {
		c.Grains = 1024
	}
	if int64(c.Grains) > c.Clients {
		c.Grains = int(c.Clients)
	}
	if c.Workers <= 0 {
		c.Workers = 128
	}
	if c.Shards <= 0 {
		c.Shards = 128
	}
	if c.RebalanceOps <= 0 {
		c.RebalanceOps = c.Clients / 5
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 250 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 500 * time.Millisecond
	}
	return c
}

// Report is one harness run's measurements.
type Report struct {
	Nodes   int   `json:"nodes"`
	Clients int64 `json:"clients"`
	Grains  int   `json:"grains"`
	Workers int   `json:"workers"`

	SteadyOps      int64         `json:"steadyOps"`
	SteadyRate     float64       `json:"steadyOpsPerSec"`
	SteadyWireRate float64       `json:"steadyWireMsgsPerSec"`
	SteadyP50      time.Duration `json:"steadyP50Ns"`
	SteadyP99      time.Duration `json:"steadyP99Ns"`

	RebalanceOps  int64         `json:"rebalanceOps"`
	RebalanceRate float64       `json:"rebalanceOpsPerSec"`
	RebalanceP99  time.Duration `json:"rebalanceP99Ns"`
	RecoveryTime  time.Duration `json:"recoveryNs"`

	Activations int64 `json:"activations"`
	Handoffs    int64 `json:"handoffs"`
	Parked      int64 `json:"parked"`
	ParkedFlush int64 `json:"parkedFlush"`
	Forwards    int64 `json:"forwards"`

	// Trace summarizes the sampled distributed traces (nil when tracing was
	// off); TraceViews carries the assembled traces themselves, slowest
	// first, for exporters (loadgen -trace-out feeds them to Perfetto) —
	// excluded from the JSON report, which wants the summary, not megabytes
	// of span ledgers.
	Trace      *TraceReport      `json:"trace,omitempty"`
	TraceViews []trace.TraceView `json:"-"`
}

// TraceReport is the report's distributed-tracing section.
type TraceReport struct {
	SampleEvery int `json:"sampleEvery"`
	// Spans is the total finished spans retained across every node's ring;
	// Traces is how many distinct traces they assemble into.
	Spans  int `json:"spans"`
	Traces int `json:"traces"`
	// CrossNode / Complete / CompleteCrossNode count traces that touched
	// more than one node, finished every retained span cleanly, and both.
	CrossNode         int `json:"crossNode"`
	Complete          int `json:"complete"`
	CompleteCrossNode int `json:"completeCrossNode"`
	// DeadSpans counts spans that deadlettered (expected during the kill
	// window: traces caught mid-handoff die as DLMoving and stay
	// inspectable).
	DeadSpans int `json:"deadSpans"`
	// Slowest lists the slowest traces with their stage rollups.
	Slowest []SlowTrace `json:"slowest"`
	// Attribution is the per-grain/per-stage latency table for the most
	// traced grains (top 10 by span count).
	Attribution []trace.ActorAttribution `json:"attribution,omitempty"`
}

// SlowTrace is one assembled trace's summary row.
type SlowTrace struct {
	Trace      string           `json:"trace"` // 16-hex TraceID
	DurationNS int64            `json:"durationNs"`
	Hops       int              `json:"hops"`
	Nodes      []string         `json:"nodes"`
	CrossNode  bool             `json:"crossNode"`
	Complete   bool             `json:"complete"`
	Coverage   float64          `json:"coverage"`
	Dead       int              `json:"dead,omitempty"`
	StagesNS   map[string]int64 `json:"stagesNs"`
}

// presenceFactory builds a presence grain: a per-grain roster size and
// message count, acked per update. State is activation-local — a rebalance
// resets it, which is the availability contract the harness measures, not a
// durability claim.
func presenceFactory(name string) actors.Behavior {
	var present, msgs int64
	return func(ctx *actors.Context, msg any) {
		if p, ok := msg.(Presence); ok {
			if p.Seq == 0 {
				present++
			}
			msgs++
			ctx.Reply(PresenceAck{Seq: p.Seq})
		}
	}
}

// Run executes one harness run and returns its report.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{Nodes: cfg.Nodes, Clients: cfg.Clients, Grains: cfg.Grains, Workers: cfg.Workers}

	net := remote.NewMemNetwork()
	part := faults.NewPartition()
	net.SetInjector(part)
	addrs := make([]string, cfg.Nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("load-%d", i+1)
	}
	nodes := make([]*cluster.Cluster, cfg.Nodes)
	tracers := make([]*trace.Tracer, cfg.Nodes)
	for i, addr := range addrs {
		var sys *actors.System
		if cfg.TraceSample > 0 {
			// Per-node tracer: each node rings its own finished spans; the
			// collector below merges them into cross-node traces.
			tracers[i] = trace.NewTracer(cfg.TraceSample, 0)
			tracers[i].SetNode(addr)
			sys = actors.NewSystem(actors.Config{Tracer: tracers[i]})
		}
		c, err := cluster.New(cluster.Config{
			ListenAddr:        addr,
			Transport:         net.Endpoint(addr),
			Seeds:             addrs,
			System:            sys,
			Shards:            cfg.Shards,
			Grain:             presenceFactory,
			HeartbeatInterval: cfg.HeartbeatInterval,
			HeartbeatTimeout:  cfg.HeartbeatTimeout,
			SuspectAfter:      cfg.SuspectAfter,
			Seed:              cfg.Seed + int64(i),
		})
		if err != nil {
			return rep, fmt.Errorf("harness: node %s: %w", addr, err)
		}
		nodes[i] = c
		defer c.Close()
	}
	if err := waitConverged(nodes, 10*time.Second); err != nil {
		return rep, err
	}

	// Two fixed driver nodes (never killed); the victim is the last node.
	drivers := nodes[:2]
	victim := nodes[cfg.Nodes-1]
	grainName := func(g int64) string { return fmt.Sprintf("presence-%d", g) }

	// Prefetch every grain ref per driver so the hot loop holds no locks.
	refs := make([][]*actors.Ref, len(drivers))
	for d, drv := range drivers {
		refs[d] = make([]*actors.Ref, cfg.Grains)
		for g := 0; g < cfg.Grains; g++ {
			refs[d][g] = drv.RefFor(grainName(int64(g)))
		}
	}

	rc := actors.RetryConfig{
		Attempts:   200,
		Timeout:    250 * time.Millisecond,
		Backoff:    time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Jitter:     0.2,
		Budget:     120 * time.Second,
		Seed:       cfg.Seed,
	}

	wireSent := func() int64 {
		var n int64
		for _, c := range nodes {
			n += c.Node().Stats().Sent
		}
		return n
	}

	// drive pushes ops [lo, hi) through the worker pool: op i is client
	// (i mod Clients) updating its grain with a per-client sequence number.
	drive := func(lo, hi int64, hist *metrics.LatencyHistogram) error {
		var wg sync.WaitGroup
		var failed atomic.Int64
		var firstErr atomic.Value
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				d := w % len(drivers)
				sys := drivers[d].System()
				for i := lo + int64(w); i < hi; i += int64(cfg.Workers) {
					client := i % cfg.Clients
					seq := i / cfg.Clients
					ref := refs[d][client%int64(cfg.Grains)]
					start := time.Now()
					rep, err := actors.AskRetry(sys, ref, Presence{Client: client, Seq: seq}, rc)
					hist.Observe(time.Since(start))
					if err != nil {
						if failed.Add(1) == 1 {
							firstErr.Store(fmt.Errorf("client %d seq %d: %w", client, seq, err))
						}
						return
					}
					if ack, ok := rep.(PresenceAck); !ok || ack.Seq != seq {
						if failed.Add(1) == 1 {
							firstErr.Store(fmt.Errorf("client %d seq %d: bad ack %#v", client, seq, rep))
						}
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if n := failed.Load(); n > 0 {
			return fmt.Errorf("harness: %d workers failed; first: %v", n, firstErr.Load())
		}
		return nil
	}

	// Steady phase: every client checks in once.
	hreg := metrics.NewRegistry()
	steadyHist := hreg.Histogram("steady")
	sentBefore := wireSent()
	steadyStart := time.Now()
	if err := drive(0, cfg.Clients, steadyHist); err != nil {
		return rep, err
	}
	steadyDur := time.Since(steadyStart)
	rep.SteadyOps = cfg.Clients
	rep.SteadyRate = float64(cfg.Clients) / steadyDur.Seconds()
	rep.SteadyWireRate = float64(wireSent()-sentBefore) / steadyDur.Seconds()
	rep.SteadyP50 = steadyHist.P50()
	rep.SteadyP99 = steadyHist.P99()

	if cfg.Kill {
		// Find a grain the victim hosts, to probe recovery.
		probe := int64(-1)
		for g := int64(0); g < int64(cfg.Grains); g++ {
			if owner, ok := drivers[0].OwnerOf(grainName(g)); ok && owner == victim.Addr() {
				probe = g
				break
			}
		}
		if probe < 0 {
			return rep, fmt.Errorf("harness: victim owns no presence grain")
		}

		rebalanceHist := hreg.Histogram("rebalance")
		killAt := time.Now()
		part.Isolate(victim.Addr())

		// Recovery probe: hammer the victim's grain until it answers from its
		// new home.
		var recovered atomic.Int64
		var probeErr error
		var probeWg sync.WaitGroup
		probeWg.Add(1)
		go func() {
			defer probeWg.Done()
			prc := rc
			prc.Timeout = 50 * time.Millisecond
			_, err := actors.AskRetry(drivers[0].System(), refs[0][probe%int64(cfg.Grains)],
				Presence{Client: -1, Seq: 1}, prc)
			if err != nil {
				probeErr = err
				return
			}
			recovered.Store(int64(time.Since(killAt)))
		}()

		// The rebalance window's load: more presence updates from the same
		// population, riding through the handoff.
		rebStart := time.Now()
		if err := drive(cfg.Clients, cfg.Clients+cfg.RebalanceOps, rebalanceHist); err != nil {
			return rep, err
		}
		rebDur := time.Since(rebStart)
		probeWg.Wait()
		if probeErr != nil {
			return rep, fmt.Errorf("harness: recovery probe: %w", probeErr)
		}
		rep.RebalanceOps = cfg.RebalanceOps
		rep.RebalanceRate = float64(cfg.RebalanceOps) / rebDur.Seconds()
		rep.RebalanceP99 = rebalanceHist.P99()
		rep.RecoveryTime = time.Duration(recovered.Load())
	}

	for _, c := range nodes {
		s := c.CounterSnapshot()
		rep.Activations += s.Activations
		rep.Handoffs += s.HandoffsOut
		rep.Parked += s.Parked
		rep.ParkedFlush += s.ParkedFlush
		rep.Forwards += s.Forwards
	}
	if cfg.TraceSample > 0 {
		rep.Trace, rep.TraceViews = collectTraces(tracers, cfg.TraceSample)
	}
	return rep, nil
}

// collectTraces merges every node's span ring into cross-node traces and
// summarizes them for the report. Called after the drive phases have
// quiesced, so in-flight spans are the exception, not the rule.
func collectTraces(tracers []*trace.Tracer, sampleEvery int) (*TraceReport, []trace.TraceView) {
	var spans []trace.SpanView
	for _, tr := range tracers {
		spans = append(spans, tr.Spans()...)
	}
	views := trace.AssembleTraces(spans)
	tr := &TraceReport{SampleEvery: sampleEvery, Spans: len(spans), Traces: len(views)}
	for _, tv := range views {
		if tv.CrossNode() {
			tr.CrossNode++
		}
		if tv.Complete() {
			tr.Complete++
			if tv.CrossNode() {
				tr.CompleteCrossNode++
			}
		}
		tr.DeadSpans += tv.Dead
	}
	const topN = 10
	for _, tv := range views {
		if len(tr.Slowest) == topN {
			break
		}
		tr.Slowest = append(tr.Slowest, summarizeTrace(tv))
	}
	attr := trace.AttributeStages(spans)
	sort.Slice(attr, func(i, j int) bool { return attr[i].Count > attr[j].Count })
	if len(attr) > topN {
		attr = attr[:topN]
	}
	tr.Attribution = attr
	return tr, views
}

func summarizeTrace(tv trace.TraceView) SlowTrace {
	st := SlowTrace{
		Trace:      fmt.Sprintf("%016x", tv.Trace),
		DurationNS: int64(tv.Duration()),
		Hops:       len(tv.Spans),
		Nodes:      tv.Nodes,
		CrossNode:  tv.CrossNode(),
		Complete:   tv.Complete(),
		Coverage:   tv.Coverage(),
		Dead:       tv.Dead,
		StagesNS:   map[string]int64{},
	}
	for i, d := range tv.StageNS {
		if d > 0 {
			st.StagesNS[trace.SpanStage(i).String()] = d
		}
	}
	return st
}

// waitConverged blocks until every node sees the full membership alive.
func waitConverged(nodes []*cluster.Cluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for _, c := range nodes {
			ms, _ := c.Members()
			alive := 0
			for _, m := range ms {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			if alive != len(nodes) {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: membership never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
