package main

import (
	"fmt"
	"time"

	"repro/internal/cluster/harness"
)

// clusterTable runs the cluster load harness (internal/cluster/harness) at
// table scale: a 3-node cluster, a modest simulated-client population, one
// node killed after the steady phase. It reports steady-state throughput,
// the ask p99 before and during the rebalance, and the recovery time from
// the kill to the first op on a re-homed grain. The full-scale baseline (a
// million clients, BENCH_cluster.json) comes from cmd/loadgen, not from
// here.
func clusterTable(reps, scale int) []row {
	cfg := harness.Config{
		Nodes:             3,
		Clients:           int64(60_000 / scale),
		Grains:            256,
		Workers:           32,
		Shards:            32,
		RebalanceOps:      int64(12_000 / scale),
		Kill:              true,
		Seed:              1,
		HeartbeatInterval: 2 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Millisecond,
		SuspectAfter:      60 * time.Millisecond,
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	name := fmt.Sprintf("%d clients on %d grains", cfg.Clients, cfg.Grains)
	return measure("cluster", reps, []benchCase{{name, func() ([]row, error) {
		rep, err := harness.Run(cfg)
		return []row{
			{Case: "steady state", Unit: "ops/s", Value: rep.SteadyRate},
			{Case: "steady state", Unit: "ask p99 ms", Value: ms(rep.SteadyP99)},
			{Case: "rebalance (1 node killed)", Unit: "ops/s", Value: rep.RebalanceRate},
			{Case: "rebalance (1 node killed)", Unit: "ask p99 ms", Value: ms(rep.RebalanceP99)},
			{Case: "rebalance (1 node killed)", Unit: "handoffs", Value: float64(rep.Handoffs)},
			{Case: "rebalance (1 node killed)", Unit: "parked", Value: float64(rep.Parked)},
			{Case: "recovery to first op on a re-homed grain", Unit: "ms", Value: ms(rep.RecoveryTime)},
		}, err
	}}})
}
