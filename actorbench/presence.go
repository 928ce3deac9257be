package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/cluster"
	"repro/internal/remote"
	"repro/internal/trace"
)

// The presence workload: a closed loop of actors.AskRetry presence updates
// from two driver nodes of a four-node cluster onto 1024 grains.

// presenceMsg is client Client's Seq'th presence update, op Op of the run.
// Traced asks the grain to stamp its handler entry and exit into the ack.
type presenceMsg struct {
	Client, Seq, Op int64
	Traced          bool
}

type presenceAck struct {
	Client, Seq int64
	In, Out     int64 // handler entry and exit (traced messages only)
}

// touchMsg activates a grain during set-up without entering its ledger.
type touchMsg struct{}

type touchAck struct{}

// ledgerQuery asks a grain for its ledger.
type ledgerQuery struct{}

type ledgerReply struct {
	Distinct int64 // distinct (client, seq) pairs seen
	Total    int64 // presence messages handled, redeliveries included
}

func init() {
	remote.RegisterType(presenceMsg{})
	remote.RegisterType(presenceAck{})
	remote.RegisterType(touchMsg{})
	remote.RegisterType(touchAck{})
	remote.RegisterType(ledgerQuery{})
	remote.RegisterType(ledgerReply{})
}

type presence struct {
	o       options
	nodes   []*cluster.Cluster
	systems []*actors.System // systems this benchmark created (traced runs)
	tracers []*trace.Tracer
	drivers []*cluster.Cluster
	refs    [][]*actors.Ref // per driver, per grain
	local   [][]bool        // per driver, per grain: the driver hosts the grain
	rc      actors.RetryConfig
	clients int64
	grains  int
	workers int
	order   []int32      // op i is client order[i mod clients]'s (i / clients)'th update
	next    atomic.Int64 // next op index
	acked   atomic.Int64 // presence acks received, warm-up included
	badSeq  atomic.Bool  // injection armed: corrupt one ack
	warming bool         // set-up's warm-up phase: never inject

	redeliveries int64 // from the last check
}

func newPresence(rec record, o options, traced bool) (instance, error) {
	w := rec.Workloads["presence"]
	pp, rp := w.Params, w.Retry
	p := &presence{
		o:       o,
		clients: int64(pp["clients"]),
		grains:  int(pp["grains"]),
		workers: int(pp["in_flight"]),
		rc: actors.RetryConfig{
			Attempts:   int(rp["attempts"]),
			Timeout:    ms(rp["timeout_ms"]),
			Backoff:    ms(rp["backoff_ms"]),
			MaxBackoff: ms(rp["max_backoff_ms"]),
			Jitter:     rp["jitter"],
			Budget:     time.Duration(rp["budget_s"] * float64(time.Second)),
			Seed:       o.seed,
		},
	}
	// Every client once per len(order) ops, in an order shuffled from the
	// seed, so (client, seq) is unique.
	rng := rand.New(rand.NewSource(o.seed))
	p.order = make([]int32, p.clients)
	for i, c := range rng.Perm(int(p.clients)) {
		p.order[i] = int32(c)
	}

	net := remote.NewMemNetwork()
	n := int(pp["nodes"])
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("presence-%d", i+1)
	}
	for i, addr := range addrs {
		var sys *actors.System
		if traced {
			tr := trace.NewTracer(tracerSample, tracerRing)
			tr.SetNode(addr)
			sys = actors.NewSystem(actors.Config{Tracer: tr})
			p.tracers = append(p.tracers, tr)
			p.systems = append(p.systems, sys)
		}
		c, err := cluster.New(cluster.Config{
			ListenAddr:        addr,
			Transport:         net.Endpoint(addr),
			Seeds:             addrs,
			System:            sys,
			Shards:            int(pp["shards"]),
			Grain:             p.grain,
			HeartbeatInterval: ms(pp["heartbeat_ms"]),
			HeartbeatTimeout:  ms(pp["heartbeat_timeout_ms"]),
			SuspectAfter:      ms(pp["suspect_after_ms"]),
			Seed:              o.seed*16 + int64(i),
		})
		if err != nil {
			p.close()
			return nil, fmt.Errorf("presence: node %s: %w", addr, err)
		}
		p.nodes = append(p.nodes, c)
	}
	if err := p.converge(10 * time.Second); err != nil {
		p.close()
		return nil, err
	}
	p.drivers = p.nodes[:int(pp["driver_nodes"])]
	for _, d := range p.drivers {
		refs := make([]*actors.Ref, p.grains)
		local := make([]bool, p.grains)
		for g := range refs {
			name := grainName(g)
			refs[g] = d.RefFor(name)
			owner, _ := d.OwnerOf(name)
			local[g] = owner == d.Addr()
		}
		p.refs = append(p.refs, refs)
		p.local = append(p.local, local)
	}
	if err := p.activateAll(); err != nil {
		p.close()
		return nil, err
	}
	p.warming = true
	ph, err := p.run(ms(pp["warmup_ms"]), nil)
	p.warming = false
	if err == nil && ph.failed > 0 {
		err = fmt.Errorf("%d ops failed", ph.failed)
	}
	if err != nil {
		p.close()
		return nil, fmt.Errorf("presence: warm-up: %w", err)
	}
	return p, nil
}

// The program's own sampled tracer in traced runs: its default rate, and a
// ring large enough to hold a traced phase's sampled spans.
const (
	tracerSample = 64
	tracerRing   = 1 << 15
)

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func grainName(g int) string { return fmt.Sprintf("presence-%d", g) }

// grain is the benchmark's presence grain: it acks every update and keeps a
// ledger of the distinct (client, seq) pairs it has seen. State is
// activation-local; no grain moves during a run.
func (p *presence) grain(name string) actors.Behavior {
	seen := map[int64]uint64{} // client → bitset of seqs < 64
	wide := map[[2]int64]bool{}
	var distinct, total int64
	return func(ctx *actors.Context, msg any) {
		switch m := msg.(type) {
		case presenceMsg:
			var in int64
			if m.Traced {
				in = nowNS()
			}
			total++
			if m.Seq < 64 {
				if bit := uint64(1) << m.Seq; seen[m.Client]&bit == 0 {
					seen[m.Client] |= bit
					distinct++
				}
			} else if k := [2]int64{m.Client, m.Seq}; !wide[k] {
				wide[k] = true
				distinct++
			}
			ack := presenceAck{Client: m.Client, Seq: m.Seq}
			if p.badSeq.Load() && m.Op%1000 == 999 && p.badSeq.CompareAndSwap(true, false) {
				ack.Seq++
			}
			if m.Traced {
				ack.In, ack.Out = in, nowNS()
			}
			ctx.Reply(ack)
		case touchMsg:
			ctx.Reply(touchAck{})
		case ledgerQuery:
			ctx.Reply(ledgerReply{Distinct: distinct, Total: total})
		}
	}
}

// converge waits until every node sees the whole membership alive.
func (p *presence) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, c := range p.nodes {
			ms, _ := c.Members()
			alive := 0
			for _, m := range ms {
				if m.State == cluster.StateAlive {
					alive++
				}
			}
			ok = ok && alive == len(p.nodes)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("presence: membership never converged")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// forGrains runs fn for every grain on the in-flight worker count.
func (p *presence) forGrains(fn func(d, g int) error) error {
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, p.workers)
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				g := int(next.Add(1) - 1)
				if g >= p.grains {
					return
				}
				if err := fn(w%len(p.drivers), g); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// activateAll activates every grain, so none activates while timed.
func (p *presence) activateAll() error {
	return p.forGrains(func(d, g int) error {
		r, err := actors.AskRetry(p.drivers[d].System(), p.refs[d][g], touchMsg{}, p.rc)
		if err != nil {
			return fmt.Errorf("presence: activating grain %d: %w", g, err)
		}
		if _, ok := r.(touchAck); !ok {
			return fmt.Errorf("presence: activating grain %d: reply %#v", g, r)
		}
		return nil
	})
}

func (p *presence) counters() layerCounts {
	var c layerCounts
	for _, n := range p.nodes {
		c.addCluster(n)
	}
	return c
}

func (p *presence) run(d time.Duration, spans *spanLog) (*phase, error) {
	if p.o.inject == "badseq" && !p.warming {
		p.badSeq.Store(true)
	}
	before := p.counters()
	var stop atomic.Bool
	var wg sync.WaitGroup
	failed := make([]int64, p.workers)
	ops := make([]int64, p.workers)
	offDriver := make([]int64, p.workers)
	errs := make([]error, p.workers)
	start := time.Now()
	sl := startTimeSlicer(d)
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drv := w % len(p.drivers)
			sys := p.drivers[drv].System()
			sr := spans.rec()
			for !stop.Load() {
				op := p.next.Add(1) - 1
				client := int64(p.order[op%p.clients])
				seq := op / p.clients
				g := int(client % int64(p.grains))
				msg := presenceMsg{Client: client, Seq: seq, Op: op, Traced: sr != nil}
				t0 := nowNS()
				r, err := actors.AskRetry(sys, p.refs[drv][g], msg, p.rc)
				t1 := nowNS()
				ack, ok := r.(presenceAck)
				if err != nil || !ok || ack.Seq != seq || ack.Client != client {
					failed[w]++
					if errs[w] == nil {
						errs[w] = fmt.Errorf("op %d client %d seq %d: reply %#v, err %v", op, client, seq, r, err)
					}
					continue
				}
				sl.record(t1, t1-t0)
				ops[w]++
				if !p.local[drv][g] {
					offDriver[w]++
				}
				if sr != nil {
					sr.op(span{Op: op, Name: "ask", Start: t0, End: t1},
						span{Name: "request_leg", Start: t0, End: ack.In},
						span{Name: "handler", Start: ack.In, End: ack.Out},
						span{Name: "reply_leg", Start: ack.Out, End: t1})
				}
			}
		}(w)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start), slices: sl.finish()}
	for w := range ops {
		ph.ops += ops[w]
		ph.failed += failed[w]
		ph.counts.offDriver += offDriver[w]
	}
	p.acked.Add(ph.ops)
	if err := errors.Join(errs...); err != nil {
		fmt.Printf("presence: %d failed ops; first: %v\n", ph.failed, err)
	}
	ph.counts = ph.counts.plus(p.counters(), 1).plus(before, -1)
	ph.failed += ph.counts.activations // the oracle: no grain activates while timed
	return ph, nil
}

// check asks every grain for its ledger: the distinct (client, seq) pairs
// must sum to the acked ops, warm-up included. It reports the mismatch as
// failed ops, and records the redeliveries (handled minus distinct).
func (p *presence) check() (int64, error) {
	var distinct, total atomic.Int64
	err := p.forGrains(func(d, g int) error {
		r, err := actors.AskRetry(p.drivers[d].System(), p.refs[d][g], ledgerQuery{}, p.rc)
		if err != nil {
			return fmt.Errorf("presence: ledger of grain %d: %w", g, err)
		}
		l, ok := r.(ledgerReply)
		if !ok {
			return fmt.Errorf("presence: ledger of grain %d: reply %#v", g, r)
		}
		distinct.Add(l.Distinct)
		total.Add(l.Total)
		return nil
	})
	if err != nil {
		return 0, err
	}
	acked := p.acked.Load()
	p.redeliveries = total.Load() - distinct.Load()
	fmt.Printf("presence ledger: %d distinct (client, seq) over %d grains, %d acked, %d redeliveries\n",
		distinct.Load(), p.grains, acked, p.redeliveries)
	if diff := distinct.Load() - acked; diff != 0 {
		if diff < 0 {
			diff = -diff
		}
		return diff, nil
	}
	return 0, nil
}

func (p *presence) layer(m metricSet, u, t *phase) {
	m.set("cluster.redeliveries_per_kop", float64(p.redeliveries)*1000/float64(max(p.acked.Load(), 1)), "count")
	m.set("actors.goroutines_peak", float64(u.health.goroutinesAdded-int64(p.workers)), "count")
	s := t.spans
	m.set("actors.handler_us_p50", s.quantile("handler", 0.50)/1e3, "us")
	m.set("actors.handler_us_p99", s.quantile("handler", 0.99)/1e3, "us")
	m.set("actors.reply_leg_us_p50", s.quantile("reply_leg", 0.50)/1e3, "us")
	m.set("actors.reply_leg_us_p99", s.quantile("reply_leg", 0.99)/1e3, "us")
	m.set("cluster.request_leg_us_p50", s.quantile("request_leg", 0.50)/1e3, "us")
	m.set("cluster.request_leg_us_p99", s.quantile("request_leg", 0.99)/1e3, "us")
	st := stageQuantiles(p.tracers)
	m.set("actors.stage_mailbox_us_p99", st(trace.StageMailbox, 0.99)/1e3, "us")
	m.set("cluster.stage_park_us_p99", st(trace.StagePark, 0.99)/1e3, "us")
	m.set("remote.stage_wire_us_p50", st(trace.StageWire, 0.50)/1e3, "us")
	m.set("remote.stage_stall_us_p99", st(trace.StageStall, 0.99)/1e3, "us")
}

func (p *presence) close() {
	for _, c := range p.nodes {
		_ = c.Close() // idempotent teardown; nothing to report
	}
	for _, s := range p.systems {
		s.Shutdown()
	}
}
