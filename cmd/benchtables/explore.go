package main

import (
	"fmt"
	"time"

	"repro/internal/pseudocode"
	"repro/internal/study"
)

// Committed seed-explorer throughput (states/sec), measured on the baseline
// machine with the pre-rewrite explorer (string-keyed visited set, per-frame
// allocation, no POR, sequential only). The "x seed" rows compare the
// current explorer against these on the same programs; on a different
// machine the ratio drifts but stays the meaningful number — the absolute
// rates in BENCH.json do not transfer.
var exploreSeedRates = map[string]float64{
	"bridge_shared":          51666,
	"bridge_message":         20794,
	"philosophers_symmetric": 60038,
}

// exploreSeedStudySecs is the seed wall time of `study -show-questions`
// ground-truth regeneration on the baseline machine.
const exploreSeedStudySecs = 14.86

// exploreCase is one case of the explorer throughput table.
type exploreCase struct {
	program string
	semName string
	sem     pseudocode.Semantics
}

func exploreCases(quick bool) []exploreCase {
	cases := []exploreCase{
		{"bridge_shared", "true", pseudocode.Semantics{}},
		{"bridge_shared", "coarse-lock", pseudocode.Semantics{CoarseLock: true}},
		{"bridge_shared", "wait-keeps-lock", pseudocode.Semantics{WaitKeepsLock: true}},
		{"philosophers_symmetric", "true", pseudocode.Semantics{}},
		{"philosophers_asymmetric", "true", pseudocode.Semantics{}},
		{"fig3c_interleave", "true", pseudocode.Semantics{}},
		{"fig5_messages", "true", pseudocode.Semantics{}},
		{"fig5_messages", "fifo", pseudocode.Semantics{FIFOMailboxes: true}},
		{"quiz_boundedbuffer", "true", pseudocode.Semantics{}},
	}
	if !quick {
		// The message bridge is the big one (~110k states under bag
		// delivery); the CI smoke skips it to stay inside its budget.
		cases = append(cases,
			exploreCase{"bridge_message", "true", pseudocode.Semantics{}},
			exploreCase{"bridge_message", "sync-send", pseudocode.Semantics{SendSynchronous: true}},
			exploreCase{"bridge_message", "fifo", pseudocode.Semantics{FIFOMailboxes: true}},
		)
	}
	return cases
}

// exploreTable measures explorer throughput over the embedded corpus:
// distinct states, transitions with and without partial-order reduction,
// sequential and 8-worker states/sec, and the speedup against the committed
// seed-explorer rates where a seed measurement exists. It ends with the
// study's ground-truth regeneration wall time (the end-to-end consumer of
// explorer speed).
func exploreTable(reps, scale int) []row {
	progs := pseudocode.CorpusPrograms()
	var cases []benchCase
	for _, c := range exploreCases(scale > 1) {
		prog, err := pseudocode.CompileSource(progs[c.program])
		check(err, "compile "+c.program)
		explore := func(opts pseudocode.ExploreOpts) (*pseudocode.ExploreResult, float64, error) {
			opts.Sem = c.sem
			start := time.Now()
			res, err := pseudocode.Explore(prog, opts)
			if err == nil && res.Truncated {
				err = fmt.Errorf("exploration truncated")
			}
			return res, time.Since(start).Seconds(), err
		}
		cases = append(cases, benchCase{c.program + "/" + c.semName, func() ([]row, error) {
			base, seqSecs, err := explore(pseudocode.ExploreOpts{})
			if err != nil {
				return nil, err
			}
			por, _, err := explore(pseudocode.ExploreOpts{POR: true})
			if err != nil {
				return nil, err
			}
			_, parSecs, err := explore(pseudocode.ExploreOpts{Workers: 8})
			if err != nil {
				return nil, err
			}
			states := float64(base.StatesVisited)
			rows := []row{
				{Unit: "states", Value: states},
				{Unit: "transitions", Value: float64(base.Transitions)},
				{Unit: "transitions POR", Value: float64(por.Transitions)},
				{Unit: "states/s", Value: states / seqSecs},
				{Unit: "states/s 8 workers", Value: states / parSecs},
			}
			if seed, ok := exploreSeedRates[c.program]; ok && c.semName == "true" {
				rows = append(rows, row{Unit: "x seed", Value: states / seqSecs / seed})
			}
			return rows, nil
		}})
	}
	rows := measure("explore", reps, cases)

	// End-to-end consumer: build the study's ground-truth bank (POR +
	// workers in production config). BuildBank memoizes per process, so
	// this row is a single cold measurement, outside the aggregation.
	start := time.Now()
	_, err := study.BuildBank()
	check(err, "study bank")
	secs := time.Since(start).Seconds()
	return append(rows,
		row{"explore", "study ground-truth bank", "s", secs},
		row{"explore", "study ground-truth bank", "x seed", exploreSeedStudySecs / secs})
}
