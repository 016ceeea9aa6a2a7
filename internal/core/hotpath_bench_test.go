package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// pushPullRig builds the hot-path shape — one worker, two ASP shards
// on the in-process transport, every node handed reg as its telemetry
// sink, no reader — warms its pools, and returns one full synchronous
// training step: scatter a push across both shards, await the acks, pull
// and reassemble the parameters. timeout sets WorkerConfig.Timeout.
func pushPullRig(tb testing.TB, reg *telemetry.Registry, timeout time.Duration) (step func(iter int) error) {
	layout := keyrange.MustLayout([]int{64, 64})
	assign, err := keyrange.EPS(layout, 2)
	if err != nil {
		tb.Fatal(err)
	}
	net := transport.NewChanNetwork(256)
	for m := 0; m < 2; m++ {
		srv, err := NewServer(net.Endpoint(transport.Server(m)), ServerConfig{
			Rank: m, NumWorkers: 1, Layout: layout, Assignment: assign,
			Model: syncmodel.ASP(), Drain: syncmodel.Lazy,
			Init:      func(k keyrange.Key, seg []float64) {},
			Telemetry: reg,
		})
		if err != nil {
			tb.Fatal(err)
		}
		go srv.Run()
	}
	w, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{
		Rank: 0, Layout: layout, Assignment: assign, Telemetry: reg, Timeout: timeout,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		w.Close()
		ep := net.Endpoint(transport.Worker(99))
		for m := 0; m < 2; m++ {
			_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)})
		}
		ep.Close()
	})
	ctx := context.Background()
	delta := make([]float64, layout.TotalDim())
	params := make([]float64, layout.TotalDim())
	step = func(iter int) error {
		if err := w.SPush(ctx, iter, delta); err != nil {
			return err
		}
		return w.SPull(ctx, iter, params)
	}
	// Warm the pools before anyone counts.
	for i := 0; i < 8; i++ {
		if err := step(i); err != nil {
			tb.Fatal(err)
		}
	}
	return step
}

// benchPushPull measures the pushPullRig step. Run with -benchmem: the
// pooled frames, per-server pipelines, reused wait timers, and a read
// tier asleep without readers keep the steady state at two allocations
// (the two operation handles; TestPushPullStepAllocs pins it), and
// telemetry must not add any — enabled instruments are atomics, disabled
// ones a nil branch.
func benchPushPull(b *testing.B, reg *telemetry.Registry) {
	step := pushPullRig(b, reg, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(8 + i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkPushPullHotPath is the baseline: no telemetry configured.
func BenchmarkPushPullHotPath(b *testing.B) {
	benchPushPull(b, telemetry.Nop)
}

// BenchmarkPushPullHotPathTelemetry runs the same step with a live
// registry on every node: the counters, gauges, and RTT/queue-wait
// histograms all collect. The cost over the baseline must stay within
// the clock reads and atomic adds — compare ns/op, and allocs/op may
// exceed the baseline by at most one.
func BenchmarkPushPullHotPathTelemetry(b *testing.B) {
	benchPushPull(b, telemetry.New())
}

// BenchmarkPushPullHotPathTelemetryNop runs with the explicit disabled
// sink; it must be indistinguishable from the baseline (the instruments
// are nil and every guard is a single predictable branch).
func BenchmarkPushPullHotPathTelemetryNop(b *testing.B) {
	benchPushPull(b, telemetry.Nop)
}

// pushPullStepAllocs is the steady-state allocation count of one
// pushPullRig step: the two operation handles. Everything else — frames,
// requests, wait timers, pull tokens, snapshots of a reader-free server —
// is pooled, reused, or not made at all.
const pushPullStepAllocs = 2

// TestPushPullStepAllocs pins the hot-path step's allocation count, with
// and without a worker timeout (whose per-request timer is reused), so a
// regression like an unconditional snapshot publish fails go test.
func TestPushPullStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, timeout := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprintf("timeout=%v", timeout), func(t *testing.T) {
			step := pushPullRig(t, telemetry.Nop, timeout)
			iter := 8
			var err error
			allocs := testing.AllocsPerRun(200, func() {
				if e := step(iter); e != nil && err == nil {
					err = e
				}
				iter++
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != pushPullStepAllocs {
				t.Fatalf("push+pull step allocates %v times, want %d", allocs, pushPullStepAllocs)
			}
		})
	}
}
