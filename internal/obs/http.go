// Package obs puts the observability surfaces on HTTP: a live Prometheus
// scrape of a metrics.Registry and an on-demand pull of a trace.Recorder's
// flight window as a Chrome trace. It exists as its own small package so
// the runtimes (actors, threads, coro, remote) stay import-free of net/http
// — they expose registries and recorders; this package serves them.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Debug bundles the surfaces the debug endpoints serve. Every field is
// optional; a nil field's endpoint answers 503 so a probe can tell "not
// wired" from "empty".
type Debug struct {
	// Registry backs /debug/metrics (Prometheus text exposition).
	Registry *metrics.Registry
	// Recorder backs /debug/flight (flight-recorder events as a Chrome
	// trace or text).
	Recorder *trace.Recorder
	// Tracer backs /debug/trace (recent distributed traces: stage
	// breakdowns, per-actor attribution, Perfetto export).
	Tracer *trace.Tracer
}

// DebugHandler returns an http.Handler serving the debug endpoints:
//
//	/debug/metrics          Prometheus text exposition of the registry
//	/debug/flight           Chrome trace JSON of the recorder's retained events
//	/debug/flight?format=text   the same events, one human-readable line each
//	/debug/trace            recent distributed traces, slowest first (JSON)
//	/debug/trace?format=chrome  the same traces as a Perfetto span timeline
//	/debug/trace?format=text    stage breakdown, one line per span
//	/debug/trace?n=N            cap the trace list (default 20)
//
// Load the chrome formats into Perfetto (ui.perfetto.dev) or
// chrome://tracing. The handler takes snapshots per request — scraping never
// blocks the hot paths beyond what the snapshot itself costs.
func DebugHandler(d Debug) http.Handler {
	reg, rec := d.Registry, d.Recorder
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no metrics registry configured", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is note it for the client log.
			fmt.Fprintf(w, "# write error: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "no trace recorder configured", http.StatusServiceUnavailable)
			return
		}
		events := rec.Events()
		switch r.URL.Query().Get("format") {
		case "", "chrome":
			w.Header().Set("Content-Type", "application/json")
			if err := trace.ExportChrome(w, events); err != nil {
				fmt.Fprintf(w, "\n# export error: %v\n", err)
			}
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, e := range events {
				fmt.Fprintln(w, e.String())
			}
		default:
			http.Error(w, "format must be chrome or text", http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if d.Tracer == nil {
			http.Error(w, "no tracer configured", http.StatusServiceUnavailable)
			return
		}
		spans := d.Tracer.Spans()
		traces := trace.AssembleTraces(spans)
		limit := 20
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				limit = v
			}
		}
		shown := traces
		if len(shown) > limit {
			shown = shown[:limit]
		}
		switch r.URL.Query().Get("format") {
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			names := trace.StageNames()
			resp := traceResponse{
				Node:        d.Tracer.NodeName(),
				SampleEvery: d.Tracer.SampleEvery(),
				SpansPushed: d.Tracer.Total(),
				Traces:      len(traces),
				Stages:      names[:],
				Slowest:     make([]traceSummary, 0, len(shown)),
				Attribution: trace.AttributeStages(spans),
			}
			for _, tv := range shown {
				resp.Slowest = append(resp.Slowest, summarize(tv))
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(resp)
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			if err := trace.ExportChromeSpans(w, shown, nil); err != nil {
				fmt.Fprintf(w, "\n# export error: %v\n", err)
			}
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, tv := range shown {
				fmt.Fprintf(w, "trace %016x  %s  hops=%d nodes=%d coverage=%.2f",
					tv.Trace, tv.Duration(), len(tv.Spans), len(tv.Nodes), tv.Coverage())
				if tv.Dead > 0 {
					fmt.Fprintf(w, " dead=%d", tv.Dead)
				}
				fmt.Fprintln(w)
				for _, s := range tv.Spans {
					fmt.Fprintf(w, "  %s %s ← %s", s.Node, s.Actor, s.Msg)
					for i, dur := range s.Stages {
						if dur > 0 {
							fmt.Fprintf(w, "  %s=%s", trace.SpanStage(i), time.Duration(dur))
						}
					}
					fmt.Fprintln(w)
				}
			}
		default:
			http.Error(w, "format must be json, chrome, or text", http.StatusBadRequest)
		}
	})
	return mux
}

// traceResponse is the /debug/trace JSON shape.
type traceResponse struct {
	Node        string                   `json:"node"`
	SampleEvery int                      `json:"sample_every"`
	SpansPushed uint64                   `json:"spans_pushed"`
	Traces      int                      `json:"traces"`
	Stages      []string                 `json:"stages"`
	Slowest     []traceSummary           `json:"slowest"`
	Attribution []trace.ActorAttribution `json:"attribution"`
}

// traceSummary is one assembled trace with its stage rollup, durations in
// nanoseconds like every other latency surface in the repo.
type traceSummary struct {
	Trace      string           `json:"trace"`
	DurationNS int64            `json:"duration_ns"`
	Hops       int              `json:"hops"`
	Nodes      []string         `json:"nodes"`
	CrossNode  bool             `json:"cross_node"`
	Complete   bool             `json:"complete"`
	Coverage   float64          `json:"coverage"`
	StagesNS   map[string]int64 `json:"stages_ns"`
	Dead       int              `json:"dead,omitempty"`
	Spans      []trace.SpanView `json:"spans"`
}

func summarize(tv trace.TraceView) traceSummary {
	ts := traceSummary{
		Trace:      fmt.Sprintf("%016x", tv.Trace),
		DurationNS: int64(tv.Duration()),
		Hops:       len(tv.Spans),
		Nodes:      tv.Nodes,
		CrossNode:  tv.CrossNode(),
		Complete:   tv.Complete(),
		Coverage:   tv.Coverage(),
		StagesNS:   map[string]int64{},
		Dead:       tv.Dead,
		Spans:      tv.Spans,
	}
	for i, d := range tv.StageNS {
		if d > 0 {
			ts.StagesNS[trace.SpanStage(i).String()] = d
		}
	}
	return ts
}

// ServeDebug starts DebugHandler(d) on addr in a background goroutine and
// returns the server (for Close) and its resolved listen address. This is
// the one-liner the cmd/ binaries use behind their -debug flags.
func ServeDebug(addr string, d Debug) (*http.Server, string, error) {
	srv := &http.Server{Handler: DebugHandler(d)}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
