package main

import "testing"

// Each planted fault must surface as a failed op, and the same run without
// it must pass: a dropped stream message and a wrong presence ack Seq.
func TestOraclesTrip(t *testing.T) {
	for _, tc := range []struct{ workload, inject string }{
		{"stream", "drop"},
		{"presence", "badseq"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			clean, err := run(options{workload: tc.workload, seed: 7, seconds: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !clean.Correct || clean.Failed != 0 {
				t.Fatalf("clean run: correct %v, %d failed", clean.Correct, clean.Failed)
			}
			bad, err := run(options{workload: tc.workload, seed: 7, seconds: 3, inject: tc.inject})
			if err != nil {
				t.Fatal(err)
			}
			if bad.Correct || bad.Failed == 0 {
				t.Fatalf("%s went unnoticed: correct %v, %d failed", tc.inject, bad.Correct, bad.Failed)
			}
		})
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 1000) // 1µs .. 100ms, uniform
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000 * 1000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	e := newHist()
	e.record(0)
	e.record(7)
	if got := e.quantile(1); got != 7 {
		t.Errorf("exact bucket quantile = %v, want 7", got)
	}
}
