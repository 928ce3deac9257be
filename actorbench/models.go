package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	_ "repro/internal/problems/registry" // registers the problems in core.Default
)

// The models workload: the paper's cross-model comparison. Every round runs
// each of the nine problems under each of the three models once, in an order
// shuffled from the seed; Spec.Run validates its own run.

var (
	modelProblems = []string{
		"bookinventory", "boundedbuffer", "diningphilosophers", "partymatching",
		"readerswriters", "singlelanebridge", "sleepingbarber", "sumworkers", "threadpool",
	}
	modelNames = []string{"threads", "actors", "coroutines"}
)

type modelCell struct {
	spec    *core.Spec
	problem string
	model   core.Model
	params  core.Params
}

func (c modelCell) name() string { return c.problem + "." + c.model.String() }

type models struct {
	cells  []modelCell
	rng    *rand.Rand
	runs   int64                // Spec.Run calls so far, the per-run seed
	cellNS map[string][]float64 // traced phase: run times per cell
}

func newModels(rec record, o options, _ bool) (instance, error) {
	w := rec.Workloads["models"]
	m := &models{rng: rand.New(rand.NewSource(o.seed)), runs: o.seed * 1_000_000}
	for _, p := range modelProblems {
		spec, err := core.Default.Get(p)
		if err != nil {
			return nil, err
		}
		params, ok := w.Problems[p]
		if !ok {
			return nil, fmt.Errorf("models: workloads.json has no params for %s", p)
		}
		for _, name := range modelNames {
			model, err := core.ParseModel(name)
			if err != nil {
				return nil, err
			}
			m.cells = append(m.cells, modelCell{spec: spec, problem: p, model: model, params: core.Params(params)})
		}
	}
	// Warm up for a fixed time (whole rounds, at least one), so that set-up
	// time is set by the warm-up budget, not by how fast the CPU is today.
	warm := time.Now()
	for time.Since(warm) < ms(w.Params["warmup_ms"]) {
		if _, _, err := m.round(nil); err != nil {
			return nil, fmt.Errorf("models: warm-up: %w", err)
		}
	}
	return m, nil
}

// round runs every cell once in a seeded order, recording each run's time.
// A run whose Spec.Run fails is counted and reported, not retried.
func (m *models) round(sr *spanRec) (sl slice, failed int64, err error) {
	lat := newHist()
	m0 := takeMark()
	defer func() { sl = sliceBetween(m0, takeMark(), lat) }()
	order := m.rng.Perm(len(m.cells))
	for _, i := range order {
		c := m.cells[i]
		m.runs++
		t0 := nowNS()
		_, runErr := c.spec.Run(c.model, c.params, m.runs)
		t1 := nowNS()
		if runErr != nil {
			failed++
			fmt.Printf("models: %s seed %d: %v\n", c.name(), m.runs, runErr)
			continue
		}
		lat.record(t1 - t0)
		if sr != nil {
			sr.op(span{Op: m.runs, Name: "problem_run", Start: t0, End: t1})
			m.cellNS[c.name()] = append(m.cellNS[c.name()], float64(t1-t0))
		}
	}
	return sl, failed, nil
}

func (m *models) run(d time.Duration, spans *spanLog) (*phase, error) {
	sr := spans.rec()
	if sr != nil && m.cellNS == nil {
		m.cellNS = map[string][]float64{}
	}
	ph := &phase{}
	start := time.Now()
	for time.Since(start) < d {
		sl, failed, err := m.round(sr)
		if err != nil {
			return nil, err
		}
		ph.slices = append(ph.slices, sl)
		ph.failed += failed
		ph.ops += int64(len(m.cells)) - failed
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

func (m *models) check() (int64, error) { return 0, nil }

// layer reports each cell's median run time and, per model, the sum of its
// nine cell medians: the time one model takes for the whole problem table.
func (m *models) layer(ms metricSet, _, _ *phase) {
	totals := map[string]float64{}
	for _, c := range m.cells {
		v := median(m.cellNS[c.name()]) / 1e6
		ms.set("models."+c.name()+"_ms", v, "ms")
		totals[c.model.String()] += v
	}
	for model, v := range totals {
		ms.set("models."+model+"_ms", v, "ms")
	}
}

func (m *models) close() {}
