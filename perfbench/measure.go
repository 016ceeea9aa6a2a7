package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// roStats records the open-loop reader's pulls during a timed phase.
type roStats struct {
	latNs     []int64 // completion minus due time
	lagNs     []int64 // send minus due time: how late the generator ran
	serviceNs []int64 // completion minus send
	staleness []int64 // trainer pushes issued minus the V_train served
	pulls     int64
	failed    int64
	missed    int64 // failed, shed at least once, or later than roLatencyLimit
	backwards int64 // pulls that returned an older epoch than the last one
	requests  uint64
	retries   uint64
}

// phase is what one timed stretch of training measured.
type phase struct {
	steps          int
	wall           time.Duration
	stepNs, syncNs []int64

	mallocs, allocBytes, gcs uint64
	gcPause                  time.Duration
	cpu                      time.Duration
	heapPeak                 uint64
	skewMax                  int64

	msgs, bytes          uint64
	attempted, failed    int64
	poolGets, poolMisses uint64

	ro *roStats
	// rates holds the step rate (steps/s) of each throughput window.
	rates []float64

	start, end            time.Time
	srvBefore, srvAfter   []telemetry.Snapshot
	wBefore, wAfter       []telemetry.Snapshot
	snapBefore, snapAfter int64 // summed server.snapshot_epoch
}

// measure runs steps timed iterations per worker and records what the
// process spent on them.
func (c *cluster) measure(ctx context.Context, steps int) (*phase, error) {
	p := &phase{}
	for _, t := range c.trainers {
		t.record = true
		t.stepNs = make([]int64, 0, steps)
		t.syncNs = make([]int64, 0, steps)
		t.attempted, t.failed = 0, 0
	}
	if c.w.roRate > 0 {
		n := int(c.w.roRate*float64(steps)/c.w.stepsPerSec) + 64
		p.ro = &roStats{
			latNs: make([]int64, 0, n), lagNs: make([]int64, 0, n),
			serviceNs: make([]int64, 0, n), staleness: make([]int64, 0, n),
		}
	}
	var skew []*telemetry.Gauge
	for _, r := range c.srvTel {
		if r != nil {
			skew = append(skew, r.Gauge("server.progress_skew"))
		}
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	msgs0, bytes0 := c.workerTraffic()
	gets0, misses0 := transport.MessagePoolStats()
	p.srvBefore, p.wBefore = snapshots(c.srvTel), snapshots(c.wTel)
	p.snapBefore = snapshotEpochs(p.srvBefore)
	var roReq0, roRet0 uint64
	if c.roConn != nil {
		roReq0, roRet0 = c.roConn.requests.Load(), c.roConn.retries.Load()
	}
	c.resetSpans()
	smp := startSampler(skew, &c.stepsDone)

	p.start = time.Now()
	err := c.train(ctx, steps, p.ro)
	p.end = time.Now()

	p.heapPeak, p.skewMax = smp.finish()
	p.rates = smp.rates
	p.srvAfter, p.wAfter = snapshots(c.srvTel), snapshots(c.wTel)
	p.snapAfter = snapshotEpochs(p.srvAfter)
	gets1, misses1 := transport.MessagePoolStats()
	msgs1, bytes1 := c.workerTraffic()
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	p.wall = p.end.Sub(p.start)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = uint64(ms1.NumGC - ms0.NumGC)
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.msgs, p.bytes = msgs1-msgs0, bytes1-bytes0
	p.poolGets, p.poolMisses = gets1-gets0, misses1-misses0
	if c.roConn != nil {
		p.ro.requests = c.roConn.requests.Load() - roReq0
		p.ro.retries = c.roConn.retries.Load() - roRet0
	}
	for _, t := range c.trainers {
		t.record = false
		p.steps += len(t.stepNs)
		p.stepNs = append(p.stepNs, t.stepNs...)
		p.syncNs = append(p.syncNs, t.syncNs...)
		p.attempted += t.attempted
		p.failed += t.failed
	}
	if p.ro != nil {
		p.attempted += p.ro.pulls
		p.failed += p.ro.failed
	}
	return p, err
}

func (c *cluster) workerTraffic() (msgs, bytes uint64) {
	for _, t := range c.trainers {
		m, b := t.ep.traffic()
		msgs += m
		bytes += b
	}
	return msgs, bytes
}

func snapshots(regs []*telemetry.Registry) []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

func snapshotEpochs(snaps []telemetry.Snapshot) int64 {
	var t int64
	for _, s := range snaps {
		t += s.GaugeOr("server.snapshot_epoch", 0)
	}
	return t
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler polls the live heap size (and, when traced, the servers'
// progress-skew gauges) during a phase, keeping the maxima.
type sampler struct {
	stop, done chan struct{}
	heapPeak   uint64
	skewMax    int64
	rates      []float64
}

// samplePeriod is how often the sampler polls; short enough to catch
// the heap near each GC cycle's peak over a multi-second phase.
const samplePeriod = 2 * time.Millisecond

// window is the length of the throughput windows: long enough to hold
// dozens of steps of the slowest workload, short enough that a phase has
// dozens of windows, whose median rate a passing stall cannot move.
const window = 250 * time.Millisecond

func startSampler(skew []*telemetry.Gauge, steps *atomic.Int64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		last, lastAt := steps.Load(), time.Now()
		next := lastAt.Add(window)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.heapPeak {
				s.heapPeak = v
			}
			for _, g := range skew {
				if v := g.Value(); v > s.skewMax {
					s.skewMax = v
				}
			}
			if now := time.Now(); !now.Before(next) {
				n := steps.Load()
				s.rates = append(s.rates, float64(n-last)/now.Sub(lastAt).Seconds())
				last, lastAt = n, now
				next = now.Add(window)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() (heapPeak uint64, skewMax int64) {
	close(s.stop)
	<-s.done
	return s.heapPeak, s.skewMax
}
