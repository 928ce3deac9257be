package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// hist is a log-linear histogram of non-negative int64 values (latencies in
// ns): values below 128 are exact, larger ones fall in buckets at most 1/64
// of their value wide. It is owned by one goroutine; merge combines them.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // 128
	histHalf    = histSub / 2
	histBuckets = histSub + (64-histSubBits)*histHalf
)

func newHist() *hist { return &hist{} }

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits // >= 1
	mant := int(v >> shift)                      // in [histHalf, histSub)
	i := histSub + (shift-1)*histHalf + (mant - histHalf)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := (i-histSub)/histHalf + 1
	mant := (i-histSub)%histHalf + histHalf
	return float64(uint64(mant) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) count() int64 { return int64(h.n) }

// quantile returns the q-quantile, interpolating linearly inside the bucket
// that holds the rank (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, w := histBounds(i)
			if i < histSub {
				return lo // an exact bucket
			}
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// The runtime-health sampler: stdlib runtime/metrics and getrusage only. It
// brackets one measured phase and reports CPU, allocation, GC, scheduling
// latency, goroutine and RSS figures for it.

var healthSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

type healthDelta struct {
	cpuNS          int64 // user + system CPU of the process
	allocObjects   uint64
	allocBytes     uint64
	gcCycles       uint64
	gcCPUS, cpuS   float64   // GC CPU and total CPU, runtime estimates
	schedBuckets   []float64 // /sched/latencies bucket bounds (s)
	schedCounts    []uint64  // time goroutines spent runnable, not running
	goroutinesPeak int64     // the process's peak goroutine count
	// goroutinesAdded is the peak goroutine count above the count at the
	// phase's start: the goroutines the load (and the program under it)
	// added, apart from idle instances and the runtime's own.
	goroutinesAdded int64
	maxRSSMB        float64 // getrusage: the process's peak RSS so far
}

// add folds the deltas of another phase into d.
func (d *healthDelta) add(o healthDelta) {
	d.cpuNS += o.cpuNS
	d.allocObjects += o.allocObjects
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.gcCPUS += o.gcCPUS
	d.cpuS += o.cpuS
	if d.schedCounts == nil {
		d.schedBuckets = o.schedBuckets
		d.schedCounts = make([]uint64, len(o.schedCounts))
	}
	for i, c := range o.schedCounts {
		d.schedCounts[i] += c
	}
	d.goroutinesPeak = max(d.goroutinesPeak, o.goroutinesPeak)
	d.goroutinesAdded = max(d.goroutinesAdded, o.goroutinesAdded)
	d.maxRSSMB = max(d.maxRSSMB, o.maxRSSMB)
}

func (d healthDelta) gcCPUFraction() float64 {
	if d.cpuS <= 0 {
		return 0
	}
	return d.gcCPUS / d.cpuS
}

type healthProbe struct {
	before []metrics.Sample
	cpu0   int64
	stopCh chan struct{}
	wg     sync.WaitGroup
	start  int64 // goroutines at the phase's start
	peak   int64
}

func readHealth() []metrics.Sample {
	s := make([]metrics.Sample, len(healthSamples))
	for i, name := range healthSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuNS(ru syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// startHealth begins a phase: it snapshots the counters and samples the
// goroutine count every 5ms until stop.
func startHealth() *healthProbe {
	n := int64(runtime.NumGoroutine())
	p := &healthProbe{stopCh: make(chan struct{}), start: n, peak: n}
	p.before = readHealth()
	p.cpu0 = cpuNS(rusage())
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
				p.peak = max(p.peak, int64(runtime.NumGoroutine()))
			}
		}
	}()
	return p
}

// stop ends the phase and returns its deltas.
func (p *healthProbe) stop() healthDelta {
	ru := rusage()
	after := readHealth()
	close(p.stopCh)
	p.wg.Wait()
	d := healthDelta{
		cpuNS:           cpuNS(ru) - p.cpu0,
		allocObjects:    after[0].Value.Uint64() - p.before[0].Value.Uint64(),
		allocBytes:      after[1].Value.Uint64() - p.before[1].Value.Uint64(),
		gcCycles:        after[2].Value.Uint64() - p.before[2].Value.Uint64(),
		gcCPUS:          after[3].Value.Float64() - p.before[3].Value.Float64(),
		cpuS:            after[4].Value.Float64() - p.before[4].Value.Float64(),
		goroutinesPeak:  p.peak,
		goroutinesAdded: p.peak - p.start,
		maxRSSMB:        float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
	sb, sa := p.before[5].Value.Float64Histogram(), after[5].Value.Float64Histogram()
	d.schedBuckets = sa.Buckets
	d.schedCounts = make([]uint64, len(sa.Counts))
	for i := range sa.Counts {
		d.schedCounts[i] = sa.Counts[i] - sb.Counts[i]
	}
	return d
}

// schedQuantile returns the q-quantile (s) of the scheduling latencies the
// phase observed, interpolating inside the runtime histogram's bucket.
func (d healthDelta) schedQuantile(q float64) float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total-1)
	var cum float64
	for i, c := range d.schedCounts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := d.schedBuckets[i], d.schedBuckets[i+1]
			if math.IsInf(lo, -1) {
				return hi
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}
