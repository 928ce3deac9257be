package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/remote"
	"repro/internal/trace"
)

// Wire payloads for the remote benchmarks.
type benchPing struct{ N int }
type benchPong struct{ N int }

func init() {
	remote.RegisterType(benchPing{})
	remote.RegisterType(benchPong{})
}

// preRewriteMemFlood is the mem-transport tell-flood rate committed before
// the wire hot-path rewrite (self-contained gob codec, per-frame sends, no
// pooling). The remote table reports the current rate against it so the
// speedup the rewrite bought stays visible as a number.
const preRewriteMemFlood = 28288.85 // msgs/sec

// nodePair starts two nodes from base, over loopback TCP or the in-process
// transport, spawns far as "far" on the second, and returns both nodes, a
// connected Ref to that actor, and a stop func that closes everything it
// started. sample > 0 traces both systems, 1 in sample sends.
func nodePair(base remote.Config, tcp bool, sample int, far actors.Behavior) (na, nb *remote.Node, ref *actors.Ref, stop func(), err error) {
	net := remote.NewMemNetwork()
	var closers []func()
	stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	start := func(addr string) (*remote.Node, error) {
		cfg := base
		cfg.ListenAddr, cfg.Transport = addr, net.Endpoint(addr)
		if tcp {
			cfg.ListenAddr, cfg.Transport = "127.0.0.1:0", remote.TCPTransport{}
		}
		if sample > 0 {
			tr := trace.NewTracer(sample, 0)
			tr.SetNode(addr)
			cfg.System = actors.NewSystem(actors.Config{Tracer: tr})
			closers = append(closers, cfg.System.Shutdown) // a node closes only a system it made
		}
		n, err := remote.NewNode(cfg)
		if err == nil {
			closers = append(closers, func() { n.Close() })
		}
		return n, err
	}
	if na, err = start("bench-near"); err == nil {
		nb, err = start("bench-far")
	}
	if err == nil {
		nb.Register("far", nb.System().MustSpawn("far", far))
		ref, err = na.RefFor("far@" + nb.Addr())
	}
	if err == nil {
		err = na.Connect(nb.Addr(), 5*time.Second)
	}
	if err != nil {
		stop()
		return nil, nil, nil, nil, err
	}
	return na, nb, ref, stop, nil
}

// pingPong times n Ask round trips to an echo actor on a second node.
func pingPong(tcp bool, sample, n int) func() ([]row, error) {
	return func() ([]row, error) {
		na, _, ref, stop, err := nodePair(remote.Config{}, tcp, sample, func(ctx *actors.Context, msg any) {
			if p, ok := msg.(benchPing); ok {
				ctx.Reply(benchPong{N: p.N})
			}
		})
		if err != nil {
			return nil, err
		}
		defer stop()
		return timed("ns/round-trip", n, func() error {
			for i := 0; i < n; i++ {
				if _, err := actors.Ask(na.System(), ref, benchPing{N: i}, 30*time.Second); err != nil {
					return fmt.Errorf("iter %d: %w", i, err)
				}
			}
			return nil
		})()
	}
}

// flood measures one-way Tell throughput between two nodes: n messages into
// a sink on the far node, timed until the last one is handled. The outbox
// is sized to the flood, so nothing deadletters; any loss would show as a
// timeout.
func flood(tcp bool, n int) func() ([]row, error) {
	return func() ([]row, error) {
		var got atomic.Int64
		done := make(chan struct{})
		_, _, ref, stop, err := nodePair(remote.Config{OutboxCap: n + 16}, tcp, 0, func(ctx *actors.Context, msg any) {
			if got.Add(1) == int64(n) {
				close(done)
			}
		})
		if err != nil {
			return nil, err
		}
		defer stop()
		rows, err := timed("msgs/s", n, func() error {
			for i := 0; i < n; i++ {
				ref.Tell(benchPing{N: i})
			}
			select {
			case <-done:
				return nil
			case <-time.After(60 * time.Second):
				return fmt.Errorf("only %d/%d frames arrived", got.Load(), n)
			}
		})()
		if err == nil && !tcp {
			rows = append(rows, row{Unit: "x pre-rewrite baseline", Value: rows[0].Value / preRewriteMemFlood})
		}
		return rows, err
	}
}

// pingBaseline is the ping-pong every traced ping-pong is compared against.
const pingBaseline = "ping-pong, mem"

// pingCases are the remote ping-pong variants; sample > 0 traces both nodes
// (sampled requests originate at the near node, cross the wire, and finish
// at the echo handler: the full span serialization cost).
var pingCases = []struct {
	name   string
	tcp    bool
	sample int
}{
	{pingBaseline, false, 0},
	{"ping-pong, tcp", true, 0},
	{"ping-pong, mem, traced 1/64 (default)", false, 64},
	{"ping-pong, mem, traced every message", false, 1},
}

// remoteTable measures the node-to-node wire: Ask round trips and one-way
// Tell floods, over the in-process transport and loopback TCP.
func remoteTable(reps, scale int) []row {
	var cases []benchCase
	for _, c := range pingCases {
		cases = append(cases, benchCase{c.name, pingPong(c.tcp, c.sample, 4000/scale)})
	}
	cases = append(cases,
		benchCase{"tell flood, mem", flood(false, 20000/scale)},
		benchCase{"tell flood, tcp", flood(true, 20000/scale)})
	return measure("remote", reps, cases)
}

// wireTable measures one frame through the streaming codec (binary header
// plus streaming payload session), isolated from the link through the
// benchmark hooks.
func wireTable(reps, scale int) []row {
	env := &remote.WireEnvelope{
		Kind: remote.FrameMsg, To: "sink", FromAddr: "wire-near",
		FromName: "driver", FromID: 7, Seq: 42, Lamport: 99,
		Payload: benchPing{N: 7},
	}
	n := 200000 / scale
	return measure("wire", reps, []benchCase{
		{"frame encode", func() ([]row, error) {
			ns, allocs, bytes := remote.BenchStreamEncode(n, env)
			return []row{{Unit: "ns/op", Value: ns}, {Unit: "allocs/op", Value: allocs}, {Unit: "B/frame", Value: bytes}}, nil
		}},
		{"frame decode", func() ([]row, error) {
			ns, allocs := remote.BenchStreamDecode(n, env)
			return []row{{Unit: "ns/op", Value: ns}, {Unit: "allocs/op", Value: allocs}}, nil
		}},
	})
}
