package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/remote"
	"repro/internal/trace"
)

// layerCounts sums the program's own counters over the nodes of one
// instance: System.Processed/DeadLetters, Node.Stats and, on cluster nodes,
// Cluster.CounterSnapshot. A phase holds the difference of two readings,
// plus offDriver, the ops the benchmark itself saw leave their driver node.
type layerCounts struct {
	processed, deadletters        int64
	sent, batches, frames, bytes  int64
	stalls, overflows             int64
	activations, forwards, parked int64
	offDriver                     int64
}

func (c *layerCounts) addNode(n *remote.Node) {
	st := n.Stats()
	c.processed += n.System().Processed()
	c.deadletters += n.System().DeadLetters()
	c.sent += st.Sent
	c.batches += st.Batches
	c.frames += st.BatchedFrames
	c.bytes += st.BytesSent
	c.stalls += st.CreditStalls
	c.overflows += st.OutboxOverflows
}

func (c *layerCounts) addCluster(n *cluster.Cluster) {
	c.addNode(n.Node())
	cs := n.CounterSnapshot()
	c.activations += cs.Activations
	c.forwards += cs.Forwards
	c.parked += cs.Parked
}

// plus returns c + sign*o, field by field.
func (c layerCounts) plus(o layerCounts, sign int64) layerCounts {
	return layerCounts{
		processed: c.processed + sign*o.processed, deadletters: c.deadletters + sign*o.deadletters,
		sent: c.sent + sign*o.sent, batches: c.batches + sign*o.batches,
		frames: c.frames + sign*o.frames, bytes: c.bytes + sign*o.bytes,
		stalls: c.stalls + sign*o.stalls, overflows: c.overflows + sign*o.overflows,
		activations: c.activations + sign*o.activations, forwards: c.forwards + sign*o.forwards,
		parked: c.parked + sign*o.parked, offDriver: c.offDriver + sign*o.offDriver,
	}
}

// metrics writes the per-layer metrics of the counter deltas c over ops
// validated ops into m. A layer the workload does not use reads 0.
func (c layerCounts) metrics(ops int64, m metricSet) {
	n := float64(max(ops, 1))
	frames := float64(c.frames)
	m.set("actors.processed_per_op", float64(c.processed)/n, "count")
	m.set("actors.deadletters_per_op", float64(c.deadletters)/n, "count")
	m.set("remote.frames_per_op", float64(c.sent)/n, "count")
	m.set("remote.outbox_overflows", float64(c.overflows), "count")
	if c.frames > 0 {
		m.set("remote.bytes_per_frame", float64(c.bytes)/frames, "B")
		m.set("remote.frames_per_batch", frames/float64(max(c.batches, 1)), "count")
		m.set("remote.credit_stalls_per_kframe", float64(c.stalls)*1000/frames, "count")
	}
	m.set("cluster.forwards_per_op", float64(c.forwards)/n, "count")
	m.set("cluster.off_driver_ratio", float64(c.offDriver)/n, "ratio")
	m.set("cluster.parked_per_kop", float64(c.parked)*1000/n, "count")
	m.set("cluster.activations_timed", float64(c.activations), "count")
}

// stageQuantiles assembles the program tracer's spans from every node into
// traces and returns a quantile function over one stage's per-trace time
// (ns), counting complete traces only.
func stageQuantiles(tracers []*trace.Tracer) func(stage trace.SpanStage, q float64) float64 {
	var spans []trace.SpanView
	for _, tr := range tracers {
		spans = append(spans, tr.Spans()...)
	}
	views := trace.AssembleTraces(spans)
	var hs [trace.StageCount]*hist
	for i := range hs {
		hs[i] = newHist()
	}
	complete := 0
	for _, tv := range views {
		if !tv.Complete() {
			continue
		}
		complete++
		for i, ns := range tv.StageNS {
			hs[i].record(ns)
		}
	}
	fmt.Printf("program tracer: %d spans in %d traces, %d complete\n", len(spans), len(views), complete)
	return func(stage trace.SpanStage, q float64) float64 { return hs[stage].quantile(q) }
}
