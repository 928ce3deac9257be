// Observability walkthrough: one instrumented workload per runtime, a
// flight recorder that auto-dumps when a deadline is missed, and every
// exposition path the layer offers — latency summaries, a Prometheus text
// dump, a Chrome trace file for Perfetto, and (with -serve) the live
// /debug HTTP endpoints. Run with:
//
//	go run ./examples/observability
//	go run ./examples/observability -serve 127.0.0.1:6060   # then curl the endpoints
//
// The walkthrough mirrors docs/OBSERVABILITY.md section by section.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/actors"
	"repro/internal/coro"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/threads"
	"repro/internal/trace"
)

func main() {
	serveAddr := flag.String("serve", "", "serve /debug/metrics and /debug/flight on this address and block")
	flag.Parse()

	// One registry collects every runtime's series; one flight recorder
	// keeps the last few hundred events per task, always on.
	reg := metrics.NewRegistry()
	rec := trace.NewFlightRecorder(256)
	rec.OnDump(func(reason string, events []trace.Event) {
		fmt.Printf("\n** flight recorder dumped (%s): %d events retained **\n", reason, len(events))
	})

	actorsWorkload(reg, rec)
	threadsWorkload(reg, rec)
	coroWorkload(reg)

	fmt.Println("\n-- latency summaries (p50/p95/p99 from the log-bucketed histograms) --")
	for _, name := range []string{
		"actors.mailbox.wait_ns", "actors.handler_ns",
		"threads.monitor.acquire_wait_ns", "threads.monitor.hold_ns",
		"coro.resume_ns",
	} {
		h := reg.Histogram(name)
		fmt.Printf("  %-32s %s\n", name, h.Summary())
	}

	fmt.Println("\n-- Prometheus text dump (what /debug/metrics serves) --")
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "observability:", err)
		os.Exit(1)
	}

	// The flight recorder's window exports as Chrome trace JSON: open
	// trace.json in Perfetto (ui.perfetto.dev) or chrome://tracing and
	// every task is a row on the timeline.
	f, err := os.Create("trace.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "observability:", err)
		os.Exit(1)
	}
	if err := trace.ExportChrome(f, rec.Events()); err != nil {
		fmt.Fprintln(os.Stderr, "observability:", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("\nwrote trace.json (%d events) — open it in Perfetto\n", len(rec.Events()))

	if *serveAddr != "" {
		_, bound, err := obs.ServeDebug(*serveAddr, obs.Debug{Registry: reg, Recorder: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, "observability:", err)
			os.Exit(1)
		}
		fmt.Printf("serving http://%s/debug/metrics and http://%s/debug/flight — ctrl-C to stop\n", bound, bound)
		select {}
	}
}

// actorsWorkload floods a small pipeline with the conservation ledger on,
// then checks the ledger: every message enqueued was processed or drained.
func actorsWorkload(reg *metrics.Registry, rec *trace.Recorder) {
	fmt.Println("-- actors: sampled mailbox/handler latencies + conservation ledger --")
	o := actors.NewObs(reg, "actors")
	o.Conserve = true
	sys := actors.NewSystem(actors.Config{Obs: o, Recorder: rec})

	const msgs = 5000
	done := make(chan struct{})
	seen := 0
	sink := sys.MustSpawn("sink", func(ctx *actors.Context, msg any) {
		seen++
		if seen == msgs {
			close(done)
		}
	})
	relay := sys.MustSpawn("relay", func(ctx *actors.Context, msg any) {
		ctx.Send(sink, msg)
	})
	for i := 0; i < msgs; i++ {
		relay.Tell(i)
	}
	<-done
	sys.Shutdown()
	if err := sys.CheckConservation(); err != nil {
		fmt.Fprintln(os.Stderr, "observability:", err)
		os.Exit(1)
	}
	fmt.Printf("  %d messages relayed; conservation holds: enqueued=%d = dequeued=%d + drained=%d\n",
		msgs, sys.MessagesEnqueued(), sys.MessagesDequeued(), sys.MessagesDrained())
}

// threadsWorkload hammers one monitor from four goroutines, then misses a
// WaitFor deadline on purpose — the KindFault event triggers the flight
// recorder's auto-dump, which is the whole point of keeping it always on.
func threadsWorkload(reg *metrics.Registry, rec *trace.Recorder) {
	fmt.Println("-- threads: monitor acquire/hold latencies, then a missed deadline --")
	var m threads.Monitor
	o := threads.NewMonitorObs(reg, "threads.monitor")
	o.SetRecorder(rec, "demo")
	m.SetObs(o)

	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			label := fmt.Sprintf("worker-%d", id)
			for i := 0; i < 500; i++ {
				m.EnterAs(label)
				counter++
				m.Exit()
			}
		}(w)
	}
	wg.Wait()

	// Nobody will ever notify "ready": the WaitFor deadline fires, the miss
	// is counted, and the KindFault event auto-dumps the flight recorder.
	m.EnterAs("waiter")
	_ = m.WaitFor("ready", 10*time.Millisecond)
	m.Exit()

	fmt.Printf("  counter=%d enters=%d exits=%d deadline misses=%d\n",
		counter, o.Enters(), o.Exits(), o.DeadlineMisses())
}

// coroWorkload runs a generator/consumer pair under an instrumented
// scheduler: resume latency is sampled, gauges track the round state.
func coroWorkload(reg *metrics.Registry) {
	fmt.Println("-- coro: sampled resume latency --")
	s := coro.NewScheduler()
	s.Instrument(reg, "coro")
	produced, consumed := 0, 0
	s.Go("producer", func(tc *coro.TaskCtl) {
		for i := 0; i < 1000; i++ {
			produced++
			tc.Pause()
		}
	})
	s.Go("consumer", func(tc *coro.TaskCtl) {
		for consumed < 1000 {
			tc.WaitUntil(func() bool { return consumed < produced })
			consumed++
		}
	})
	if err := s.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "observability:", err)
		os.Exit(1)
	}
	fmt.Printf("  produced=%d consumed=%d\n", produced, consumed)
}
