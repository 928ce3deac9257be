package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// A timed phase is cut into slices, and every end-to-end figure is the
// median over its quiet slices (main.go): a second in which the machine
// stalls the process then moves a run's figure by one slice out of many,
// not by its share of the whole run. Closed loops cut time into slices of
// sliceWidth; round-based workloads make each round a slice.

// slice is one slice of a phase.
type slice struct {
	dur    time.Duration
	lat    *hist // latencies of the ops completed in the slice
	cpuNS  int64
	allocs uint64
}

func (s slice) ops() int64 { return s.lat.count() }

// mark is a sample of the process counters a slice boundary takes.
type mark struct {
	at     int64 // nowNS
	cpuNS  int64
	allocs uint64
}

func takeMark() mark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return mark{at: nowNS(), cpuNS: cpuNS(rusage()), allocs: s[0].Value.Uint64()}
}

func sliceBetween(a, b mark, lat *hist) slice {
	return slice{dur: time.Duration(b.at - a.at), lat: lat, cpuNS: b.cpuNS - a.cpuNS, allocs: b.allocs - a.allocs}
}

// atomicHist is a hist many goroutines record into at once.
type atomicHist struct {
	counts [histBuckets]atomic.Uint64
}

func (h *atomicHist) record(v int64) { h.counts[histIndex(v)].Add(1) }

func (h *atomicHist) snapshot() *hist {
	out := newHist()
	for i := range h.counts {
		c := h.counts[i].Load()
		out.counts[i] = c
		out.n += c
	}
	return out
}

// timeSlicer cuts a closed loop's phase into equal time slices. Ops are
// recorded by completion time; ops that complete after the phase's nominal
// end (the in-flight tail) land in the last slice, which ends with the phase.
type timeSlicer struct {
	start, width int64
	n            int // slices
	lat          []*atomicHist
	marks        []mark // one per boundary, written by the sampler goroutine
	stop         chan struct{}
	done         chan struct{}
}

// sliceWidth is the nominal length of a closed loop's slice: short enough
// that a host's bursts of contention leave many slices untouched.
const sliceWidth = 200 * time.Millisecond

func startTimeSlicer(d time.Duration) *timeSlicer {
	n := max(1, int(d/sliceWidth))
	s := &timeSlicer{
		width: int64(d) / int64(n),
		n:     n,
		lat:   make([]*atomicHist, n),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range s.lat {
		s.lat[i] = &atomicHist{}
	}
	first := takeMark()
	s.start = first.at
	s.marks = []mark{first}
	go func() {
		defer close(s.done)
		for k := 1; k < s.n; k++ {
			t := time.NewTimer(time.Duration(s.start + int64(k)*s.width - nowNS()))
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
				s.marks = append(s.marks, takeMark())
			}
		}
	}()
	return s
}

func (s *timeSlicer) record(end, lat int64) {
	i := (end - s.start) / s.width
	if i >= int64(s.n) {
		i = int64(s.n) - 1
	} else if i < 0 {
		i = 0
	}
	s.lat[i].record(lat)
}

// finish ends the phase and returns its slices. Slices whose boundary the
// sampler never reached (a phase cut short by an error) are folded into
// the last one.
func (s *timeSlicer) finish() []slice {
	close(s.stop)
	<-s.done
	marks := append(s.marks, takeMark())
	out := make([]slice, 0, len(marks)-1)
	for k := 0; k+1 < len(marks); k++ {
		lat := s.lat[k].snapshot()
		if k == len(marks)-2 {
			for j := k + 1; j < s.n; j++ {
				lat.merge(s.lat[j].snapshot())
			}
		}
		out = append(out, sliceBetween(marks[k], marks[k+1], lat))
	}
	return out
}
