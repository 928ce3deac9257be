package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/metrics"
	"repro/internal/remote"
)

// pr3MemFloodBaseline is the committed mem-transport tell-flood rate from the
// BENCH_remote.json baseline taken before the wire hot-path rewrite
// (self-contained gob codec, per-frame sends, no pooling). The -wire table
// reports the current streaming rate against it so the speedup the rewrite
// bought stays visible as a number, not a changelog anecdote.
const pr3MemFloodBaseline = 28288.85 // msgs/sec

// wireFlood measures one-way Tell throughput (msgs/sec) between two nodes.
func wireFlood(mem bool, n int) (float64, error) {
	var ta, tb remote.Transport
	addrA, addrB := "127.0.0.1:0", "127.0.0.1:0"
	if mem {
		net := remote.NewMemNetwork()
		addrA, addrB = "wire-near", "wire-far"
		ta, tb = net.Endpoint(addrA), net.Endpoint(addrB)
	} else {
		ta, tb = remote.TCPTransport{}, remote.TCPTransport{}
	}
	na, err := remote.NewNode(remote.Config{ListenAddr: addrA, Transport: ta, OutboxCap: n + 16})
	if err != nil {
		return 0, err
	}
	defer na.Close()
	nb, err := remote.NewNode(remote.Config{ListenAddr: addrB, Transport: tb})
	if err != nil {
		return 0, err
	}
	defer nb.Close()
	var got atomic.Int64
	done := make(chan struct{})
	sink := nb.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if got.Add(1) == int64(n) {
			close(done)
		}
	})
	nb.Register("sink", sink)
	ref, err := na.RefFor("sink@" + nb.Addr())
	if err != nil {
		return 0, err
	}
	if err := na.Connect(nb.Addr(), 5*time.Second); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		ref.Tell(benchPing{N: i})
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return 0, fmt.Errorf("only %d/%d frames arrived", got.Load(), n)
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// wireTable prints the wire hot-path numbers — codec micro-costs and
// end-to-end floods — and returns them for the -json-wire baseline
// (BENCH_wire.json).
func wireTable(reps, scale int) []benchEntry {
	t := metrics.NewTable("WIRE HOT PATH: streaming codec (docs/REMOTE.md)",
		"Case", "value", "allocs/op")
	var entries []benchEntry
	add := func(name, metric string, value, allocs float64, format string) {
		t.AddRow(name, fmt.Sprintf(format, value), fmt.Sprintf("%.1f", allocs))
		entries = append(entries,
			benchEntry{Name: name, Metric: metric, Value: value},
			benchEntry{Name: name, Metric: "allocs/op", Value: allocs})
	}

	env := &remote.WireEnvelope{
		Kind: remote.FrameMsg, To: "sink", FromAddr: "wire-near",
		FromName: "driver", FromID: 7, Seq: 42, Lamport: 99,
		Payload: benchPing{N: 7},
	}
	micro := 200000 / scale

	// Frame encode and decode: binary header + streaming payload session,
	// isolated from the link through the benchmark hooks.
	newNs, newAllocs, newBytes := remote.BenchStreamEncode(micro, env)
	add("frame encode, streaming codec", "ns/op", newNs, newAllocs, "%.0f ns/op")
	add("frame size, streaming codec", "bytes/frame", newBytes, 0, "%.0f B")
	decNs, decAllocs := remote.BenchStreamDecode(micro, env)
	add("frame decode, streaming codec", "ns/op", decNs, decAllocs, "%.0f ns/op")

	// End-to-end floods on both transports.
	flood := func(name string, mem bool, n int) float64 {
		var rate float64
		_, err := timeMedian(reps, func() error {
			r, err := wireFlood(mem, n)
			rate = r
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", name, err)
			os.Exit(1)
		}
		t.AddRow(name, fmt.Sprintf("%.2fk msgs/sec", rate/1e3), "-")
		entries = append(entries, benchEntry{Name: name, Metric: "msgs/sec", Value: rate})
		return rate
	}
	fn := 20000 / scale
	strMem := flood("tell flood mem, streaming codec", true, fn)
	flood("tell flood tcp, streaming codec", false, fn)

	speedup := strMem / pr3MemFloodBaseline
	name := "mem flood vs committed pre-rewrite baseline"
	t.AddRow(name, fmt.Sprintf("%.2fx", speedup), "-")
	entries = append(entries, benchEntry{Name: name, Metric: "speedup", Value: speedup})

	fmt.Print(t)
	return entries
}

// writeWireBaseline persists the wire hot-path entries as the committed
// regression baseline (BENCH_wire.json).
func writeWireBaseline(path string, scale int, entries []benchEntry) error {
	doc := struct {
		Note    string       `json:"note"`
		Command string       `json:"command"`
		Scale   int          `json:"scale"`
		Entries []benchEntry `json:"entries"`
	}{
		Note: "Wire hot-path baseline: streaming codec + pooled buffers + send " +
			"coalescing. Machine-dependent: compare the speedup and allocs/op " +
			"entries, not absolute rates. The " +
			"'vs committed pre-rewrite baseline' entry is relative to the " +
			"BENCH_remote.json mem flood recorded before the rewrite.",
		Command: "go run ./cmd/benchtables -wire -json-wire BENCH_wire.json",
		Scale:   scale,
		Entries: entries,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
