package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's spans. They are recorded in benchmark code around the
// calls into each layer (ask, tell, problem_run), around the
// benchmark's own grain and sink behaviour (handler), and between the two
// (request_leg, reply_leg, deliver) from the op ID and timestamp carried in
// each message. Each goroutine records into its own spanRec; the log keeps
// the first spans in memory, writes them out at the end, and aggregates
// every span's duration by name.

// epoch is the zero of every span timestamp: one monotonic clock shared by
// all nodes of the in-process cluster.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanKeep bounds the spans a log keeps for the written trace.
const spanKeep = 50000

type spanLog struct {
	mu   sync.Mutex
	recs []*spanRec
	room atomic.Int64 // spans that may still be kept
}

// spanRec is one goroutine's span recorder.
type spanRec struct {
	log        *spanLog
	byName     map[string]*hist
	kept       []span
	ops        int64
	violations int64
	// Tiled ops: how many, and the least and most of the children's summed
	// time over the op's time.
	tiled          int64
	covMin, covMax float64
}

func newSpanLog() *spanLog {
	l := &spanLog{}
	l.room.Store(spanKeep)
	return l
}

// rec returns a new recorder owned by the calling goroutine.
func (l *spanLog) rec() *spanRec {
	if l == nil {
		return nil
	}
	r := &spanRec{log: l, byName: map[string]*hist{}}
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
	return r
}

func (r *spanRec) add(s span) {
	h := r.byName[s.Name]
	if h == nil {
		h = newHist()
		r.byName[s.Name] = h
	}
	h.record(s.End - s.Start)
	if r.log.room.Add(-1) >= 0 {
		r.kept = append(r.kept, s)
	}
}

// root records a span that is not one of the workload's ops (stream's tell:
// the call returns independently of the message's delivery).
func (r *spanRec) root(op int64, name string, start, end int64) {
	if end < start {
		r.violations++
	}
	r.add(span{Op: op, Name: name, Start: start, End: end})
}

// op records one op's root span and its children. tiles are children that
// partition the root interval; their summed duration over the root's is
// the op's coverage. A child outside its parent is a violation.
func (r *spanRec) op(root span, tiles ...span) {
	r.ops++
	r.add(root)
	if len(tiles) == 0 {
		return
	}
	var covered int64
	for _, c := range tiles {
		c.Op, c.Parent = root.Op, root.Name
		if c.Start < root.Start || c.End > root.End || c.End < c.Start {
			r.violations++
		}
		covered += c.End - c.Start
		r.add(c)
	}
	if d := root.End - root.Start; d > 0 {
		c := float64(covered) / float64(d)
		r.cover(c, c, 1)
	}
}

// cover folds n tiled ops whose coverage lies in [lo, hi] into r.
func (r *spanRec) cover(lo, hi float64, n int64) {
	if n == 0 {
		return
	}
	if r.tiled == 0 || lo < r.covMin {
		r.covMin = lo
	}
	if r.tiled == 0 || hi > r.covMax {
		r.covMax = hi
	}
	r.tiled += n
}

// merged folds every recorder into one.
func (l *spanLog) merged() *spanRec {
	out := &spanRec{log: l, byName: map[string]*hist{}}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.recs {
		for name, h := range r.byName {
			if out.byName[name] == nil {
				out.byName[name] = newHist()
			}
			out.byName[name].merge(h)
		}
		out.kept = append(out.kept, r.kept...)
		out.ops += r.ops
		out.violations += r.violations
		out.cover(r.covMin, r.covMax, r.tiled)
	}
	return out
}

// quantile returns the q-quantile duration (ns) of the named spans.
func (l *spanLog) quantile(name string, q float64) float64 {
	if l == nil {
		return 0
	}
	m := l.merged()
	if h := m.byName[name]; h != nil {
		return h.quantile(q)
	}
	return 0
}

// violations counts child spans found outside their parent op.
func (l *spanLog) violations() int64 { return l.merged().violations }

// report prints the span summary and the reconciliation check.
func (l *spanLog) report(w io.Writer) {
	m := l.merged()
	names := make([]string, 0, len(m.byName))
	for n := range m.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %d ops traced, %d spans kept\n", m.ops, len(m.kept))
	for _, n := range names {
		h := m.byName[n]
		fmt.Fprintf(w, "  %-12s n=%-9d p50 %10.1fus  p99 %10.1fus\n",
			n, h.count(), h.quantile(0.5)/1e3, h.quantile(0.99)/1e3)
	}
	if m.tiled > 0 {
		fmt.Fprintf(w, "reconciliation: %d child spans outside their parent op; children cover %.6f to %.6f of each of %d ops\n",
			m.violations, m.covMin, m.covMax, m.tiled)
	} else {
		fmt.Fprintf(w, "reconciliation: %d child spans outside their parent op; no tiled ops in this workload\n", m.violations)
	}
}

// write saves the kept spans as JSON lines, ordered by start.
func (l *spanLog) write(path string) error {
	m := l.merged()
	sort.Slice(m.kept, func(i, j int) bool { return m.kept[i].Start < m.kept[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range m.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
