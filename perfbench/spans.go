package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanKind names one timed call at a layer boundary.
type spanKind uint8

// Span kinds. The first seven are a training step and its direct
// children, in the order the step runs them: compute (batch, gradient,
// delta), then push, then pull.
const (
	spanStep spanKind = iota + 1
	spanBatch
	spanGradient
	spanDelta
	spanPushCall
	spanPull
	spanPushWait
	spanWorkerSend
	spanServerSend
	spanServerRecvWait
)

var spanNames = [...]string{
	spanStep:           "step",
	spanBatch:          "dataset.batch",
	spanGradient:       "mlmodel.gradient",
	spanDelta:          "optimizer.delta",
	spanPushCall:       "core.worker.push_call",
	spanPull:           "core.worker.pull",
	spanPushWait:       "core.worker.push_wait",
	spanWorkerSend:     "transport.worker_send",
	spanServerSend:     "transport.server_send",
	spanServerRecvWait: "transport.server_recv_wait",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call. Spans of one training step share id: the
// worker rank in the high 32 bits, the iteration in the low ones.
// Server-side spans take the id of the request they received or answer.
type span struct {
	id    uint64
	kind  spanKind
	start time.Time
	dur   time.Duration
}

func stepID(rank int, iter int32) uint64 { return uint64(rank)<<32 | uint64(uint32(iter)) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced runs skip tracing.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(id uint64, kind spanKind, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{id: id, kind: kind, start: start, dur: end.Sub(start)})
	l.mu.Unlock()
}

// durations returns the durations (ns) of every span of kind k in logs.
func durations(k spanKind, logs ...*spanLog) []int64 {
	var out []int64
	for _, l := range logs {
		if l == nil {
			continue
		}
		l.mu.Lock()
		for _, s := range l.spans {
			if s.kind == k {
				out = append(out, int64(s.dur))
			}
		}
		l.mu.Unlock()
	}
	return out
}

// writeSpans writes every span of logs to path as tab-separated text:
// worker rank, iteration, span name, start (ns after origin), duration (ns).
func writeSpans(path string, origin time.Time, logs ...*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rank\titer\tspan\tstart_ns\tdur_ns")
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id>>32, int32(uint32(s.id)), s.kind,
				s.start.Sub(origin).Nanoseconds(), s.dur.Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the nearest-rank p-th percentile of xs (sorting a
// copy); 0 for an empty sample.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// nsTo converts nanoseconds to the given unit.
func nsTo(ns int64, unit time.Duration) float64 { return float64(ns) / float64(unit) }
