// Command perfbench is the repository's end-to-end training benchmark.
// It trains a model with real SGD through the public core.NewServer /
// core.NewWorker / core.ROClient APIs, over TCP loopback or the
// in-process ChanNetwork, and reports what a user of the parameter
// server sees: step throughput and latency, the synchronization share of
// each step, bytes and allocations per step, and the trained model's
// loss. It also checks that the training was correct.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing and telemetry
// off. --trace 1 is a separate run: the same workload untraced, then
// again with per-node telemetry registries and spans around the calls
// into each layer; it reports per-layer metrics and writes the spans to
// <dir>/<workload>.tsv. Either way the last line of standard output is
// one JSON object {correct, attempted, failed, metrics}, and the exit
// status is non-zero when a correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/fluentps/fluentps/internal/core"
	"github.com/fluentps/fluentps/internal/optimizer"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
)

const (
	// setupReps is how many times an untraced run builds its cluster;
	// setup_s is the median.
	setupReps = 9
	// runDeadline bounds the whole run, so a wedged cluster still ends it
	// well inside the benchmark contract's 180 s.
	runDeadline = 150 * time.Second
	// lossMargin is the largest relative gap between the distributed
	// run's final test loss and the single-worker reference's.
	lossMargin = 0.15
	// roStalenessBound is the largest p99 staleness (trainer pushes
	// issued minus the V_train a read-only pull returned) accepted.
	roStalenessBound = 8
	// unattributedLimit is the largest share of traced step time that the
	// step's child spans may leave uncovered.
	unattributedLimit = 0.05
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one correctness condition of the run.
type check struct {
	name   string
	ok     bool
	detail string
}

type run struct {
	w       *workload
	seed    int64
	steps   int
	traced  bool
	checks  []check
	metrics map[string]metric
	// extra holds figures printed in the human-readable report only.
	extra     map[string]metric
	attempted int64
	failed    int64
}

func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "nominal timed length of the run (1-60); sizes the fixed step count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "directory for the traced run's spans (empty: do not write them)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloadNamed(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be 1-60 and --trace 0 or 1")
		return 2
	}
	r := &run{
		w: w, seed: *seed, traced: *trace == 1,
		steps:   int(math.Round(float64(*seconds) * w.stepsPerSec)),
		metrics: map[string]metric{},
		extra:   map[string]metric{},
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if err := r.execute(ctx, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := true
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(os.Stderr, "check %s %-22s %s\n", status, c.name, c.detail)
	}
	r.report()
	out, err := json.Marshal(result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// report prints every figure, with its unit, one per line on stderr.
func (r *run) report() {
	fmt.Fprintf(os.Stderr, "workload %s seed %d steps/worker %d trace %v\n", r.w.name, r.seed, r.steps, r.traced)
	for _, m := range []map[string]metric{r.metrics, r.extra} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
}

// execute builds the cluster, trains, checks, and fills in the metrics.
func (r *run) execute(ctx context.Context, spansDir string) error {
	reps := setupReps
	if r.traced {
		reps = 1
	}
	var (
		c      *cluster
		tk     *task
		setups []int64
	)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if tk, err = newTask(r.w, r.seed); err != nil {
			return err
		}
		if c, err = newCluster(r.w, tk, r.seed, false, r.steps); err != nil {
			return fmt.Errorf("set up: %w", err)
		}
		if err := c.warmup(ctx); err != nil {
			c.close()
			return fmt.Errorf("warm up: %w", err)
		}
		setups = append(setups, int64(time.Since(start)))
		if i < reps-1 {
			c.close()
		}
	}
	a, lossA := r.train(ctx, c, "untraced")
	if !r.traced {
		r.checkLoss(ctx, tk, lossA)
		r.endToEnd(a, setups, lossA)
		return nil
	}

	bc, err := newCluster(r.w, tk, r.seed, true, r.steps)
	if err != nil {
		return fmt.Errorf("set up traced cluster: %w", err)
	}
	if err := bc.warmup(ctx); err != nil {
		bc.close()
		return fmt.Errorf("warm up traced cluster: %w", err)
	}
	b, lossB := r.train(ctx, bc, "traced")
	r.checkLoss(ctx, tk, lossA, lossB)
	trainers, workerEPs, serverEPs := bc.logs()
	if spansDir != "" {
		path := filepath.Join(spansDir, r.w.name+".tsv")
		if err := writeSpans(path, b.start, append(append(trainers, workerEPs...), serverEPs...)...); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	cs, err := measureCodec(tk)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	r.perLayer(a, b, cs, trainers, workerEPs, serverEPs)
	return nil
}

// train runs the timed phase on c, tears c down, and checks what it can
// about the phase on its own. It returns the final test loss (0 when
// training failed, which the checks record).
func (r *run) train(ctx context.Context, c *cluster, label string) (*phase, float64) {
	p, trainErr := c.measure(ctx, r.steps)
	r.attempted += p.attempted
	r.failed += p.failed
	final, stats, finishErr := c.finish(ctx)
	if trainErr != nil || finishErr != nil {
		r.check(label+" training", false, "%v", errors.Join(trainErr, finishErr))
		return p, 0
	}
	r.check(label+" training", p.failed == 0, "%d of %d operations failed", p.failed, p.attempted)
	var applied int
	for _, s := range stats {
		applied += s.Pushes
	}
	issued := c.pushesIssued.Load()
	r.check(label+" exactly-once", int64(applied) == issued,
		"pushes applied %d, pushes issued %d", applied, issued)
	if c.traced {
		timed := counterDelta("server.pushes_applied", p.srvBefore, p.srvAfter)
		r.check(label+" exactly-once/step", timed == uint64(p.steps*c.shards),
			"pushes applied per step %.6g × %d timed steps = %d, pushes issued %d",
			ratio(float64(timed), float64(p.steps)), p.steps, timed, p.steps*c.shards)
	}
	if p.ro != nil {
		r.check(label+" ro monotone epochs", p.ro.backwards == 0, "%d pulls saw an older epoch", p.ro.backwards)
		st := percentile(p.ro.staleness, 99)
		r.check(label+" ro staleness", st <= roStalenessBound && len(p.ro.staleness) > 0,
			"p99 %d ≤ %d iterations over %d pulls", st, roStalenessBound, len(p.ro.staleness))
	}
	loss, _ := c.task.model.Evaluate(final, c.task.test)
	return p, loss
}

// checkLoss compares final losses with a single-worker, single-server
// reference run of the same task, seed and sample count (untimed).
func (r *run) checkLoss(ctx context.Context, tk *task, losses ...float64) {
	iters := r.w.workers * (warmupSteps + r.steps)
	res, err := core.RunContext(ctx, core.ClusterConfig{
		Workers: 1, Servers: 1,
		Model: tk.model, Train: tk.train, Test: tk.test,
		Sync: syncmodel.ASP(), Drain: syncmodel.Lazy,
		NewOptimizer: func() optimizer.Optimizer { return &optimizer.SGD{LR: r.w.lr} },
		BatchSize:    r.w.batch,
		Iters:        iters,
		Seed:         r.seed,
	})
	if err != nil {
		r.check("reference run", false, "%v", err)
		return
	}
	r.extra["reference_loss"] = metric{Value: res.FinalLoss, Unit: "nats"}
	for _, l := range losses {
		gap := math.Abs(l-res.FinalLoss) / res.FinalLoss
		r.check("final loss", l > 0 && gap <= lossMargin,
			"%.4f vs reference %.4f after %d samples (gap %.3f ≤ %.2f)", l, res.FinalLoss, iters*r.w.batch, gap, lossMargin)
	}
}

// endToEnd fills in the metrics of an untraced run.
func (r *run) endToEnd(p *phase, setups []int64, loss float64) {
	steps := float64(p.steps)
	r.set("setup_s", nsTo(percentile(setups, 50), time.Second), "s")
	r.set("step_p50_ms", nsTo(percentile(p.stepNs, 50), time.Millisecond), "ms")
	r.set("msg_bytes_per_step", float64(p.bytes)/steps, "B")
	r.set("allocs_per_step", float64(p.mallocs)/steps, "count")
	r.set("cpu_ms_per_step", nsTo(int64(p.cpu), time.Millisecond)/steps, "ms")
	r.set("heap_peak_mb", float64(p.heapPeak)/(1<<20), "MB")
	r.set("final_loss", loss, "nats")
	// Figures the result line does not gate are printed here only: a rate
	// that reads 0 in a healthy run, and timings that drift between runs
	// by more than the gate's largest bound on a shared 2-CPU host. The
	// traced run reports the timings as per-layer metrics.
	r.extra["error_rate"] = metric{Value: ratio(float64(r.failed), float64(r.attempted)), Unit: "ratio"}
	stepTimings(p, r.extra)
	if p.ro != nil {
		roMetrics(p, r.extra)
	}
}

// roMetrics computes the read tier's figures from an untraced phase.
func roMetrics(p *phase, into map[string]metric) {
	ro := p.ro
	into["ro_p50_ms"] = metric{Value: nsTo(percentile(ro.latNs, 50), time.Millisecond), Unit: "ms"}
	into["ro_p99_ms"] = metric{Value: nsTo(percentile(ro.latNs, 99), time.Millisecond), Unit: "ms"}
	into["ro_miss_share"] = metric{Value: ratio(float64(ro.missed), float64(ro.pulls)), Unit: "ratio"}
	into["ro_staleness_p99"] = metric{Value: float64(percentile(ro.staleness, 99)), Unit: "iters"}
	into["core.ro.service_us_p50"] = metric{Value: nsTo(percentile(ro.serviceNs, 50), time.Microsecond), Unit: "us"}
	into["core.ro.shed_ratio"] = metric{Value: ratio(float64(ro.retries), float64(ro.requests)), Unit: "ratio"}
	into["loadgen.lag_ms_p99"] = metric{Value: nsTo(percentile(ro.lagNs, 99), time.Millisecond), Unit: "ms"}
	into["loadgen.lag_ms_max"] = metric{Value: nsTo(maxOf(ro.lagNs), time.Millisecond), Unit: "ms"}
}

// perLayer fills in the metrics of a traced run: a is its untraced phase
// (throughput and step timings, runtime, read tier and load generator
// figures, and the baseline of the tracing overhead), b the traced one.
func (r *run) perLayer(a, b *phase, cs codecStats, trainers, workerEPs, serverEPs []*spanLog) {
	steps := float64(b.steps)
	us, ms := time.Microsecond, time.Millisecond
	hist := func(name string, before, after []telemetry.Snapshot, q float64) int64 {
		return histQuantile(histDelta(name, before, after), q)
	}
	srvCount := func(name string) float64 {
		return float64(counterDelta(name, b.srvBefore, b.srvAfter))
	}

	compute, unattributed := attribution(trainers)
	r.set("mlmodel.gradient_ms_p50", nsTo(percentile(durations(spanGradient, trainers...), 50), ms), "ms")
	r.set("optimizer.delta_ms_p50", nsTo(percentile(durations(spanDelta, trainers...), 50), ms), "ms")
	r.set("mlmodel.compute_share", compute, "ratio")

	pulls := durations(spanPull, trainers...)
	r.set("core.worker.push_call_us_p50", nsTo(percentile(durations(spanPushCall, trainers...), 50), us), "us")
	r.set("core.worker.pull_ms_p50", nsTo(percentile(pulls, 50), ms), "ms")
	r.set("core.worker.pull_ms_p99", nsTo(percentile(pulls, 99), ms), "ms")
	r.set("core.worker.push_rtt_us_p50", nsTo(hist("worker.push_rtt_ns", b.wBefore, b.wAfter, 0.5), us), "us")
	r.set("core.worker.push_rtt_us_p99", nsTo(hist("worker.push_rtt_ns", b.wBefore, b.wAfter, 0.99), us), "us")
	r.set("core.worker.pull_rtt_us_p50", nsTo(hist("worker.pull_rtt_ns", b.wBefore, b.wAfter, 0.5), us), "us")
	r.set("core.worker.pull_rtt_us_p99", nsTo(hist("worker.pull_rtt_ns", b.wBefore, b.wAfter, 0.99), us), "us")
	r.set("core.worker.retries", float64(counterDelta("worker.retries", b.wBefore, b.wAfter)), "count")
	r.set("core.worker.timeouts", float64(counterDelta("worker.timeouts", b.wBefore, b.wAfter)), "count")

	wSend, sSend := durations(spanWorkerSend, workerEPs...), durations(spanServerSend, serverEPs...)
	r.set("transport.msgs_per_step", float64(b.msgs)/steps, "count")
	r.set("transport.worker_send_us_p50", nsTo(percentile(wSend, 50), us), "us")
	r.set("transport.worker_send_us_p99", nsTo(percentile(wSend, 99), us), "us")
	r.set("transport.server_send_us_p50", nsTo(percentile(sSend, 50), us), "us")
	r.set("transport.server_send_us_p99", nsTo(percentile(sSend, 99), us), "us")
	r.set("transport.server_recv_idle_share", idleShare(b, serverEPs), "ratio")
	r.set("transport.pool_hit_ratio", 1-ratio(float64(b.poolMisses), float64(b.poolGets)), "ratio")
	r.set("transport.encode_us_per_mb", cs.encodeUsPerMB, "us/MB")
	r.set("transport.decode_us_per_mb", cs.decodeUsPerMB, "us/MB")
	r.set("transport.frame_rt_us_p50", nsTo(cs.frameRTNs, us), "us")
	r.set("transport.mux_send_us_p50", nsTo(cs.muxSendNs, us), "us")

	r.set("core.server.apply_wait_us_p50", nsTo(hist("server.apply_wait_ns", b.srvBefore, b.srvAfter, 0.5), us), "us")
	r.set("core.server.apply_wait_us_p99", nsTo(hist("server.apply_wait_ns", b.srvBefore, b.srvAfter, 0.99), us), "us")
	r.set("core.server.apply_batch_size_p50", float64(hist("server.apply_batch_size", b.srvBefore, b.srvAfter, 0.5)), "count")
	r.set("core.server.pushes_applied_per_step", srvCount("server.pushes_applied")/steps, "count")
	r.set("core.server.pulls_per_step", srvCount("server.pulls")/steps, "count")
	r.set("core.server.dedup_hits", srvCount("server.dedup_push_hits")+srvCount("server.dedup_pull_hits"), "count")

	r.set("syncmodel.dpr_per_step", srvCount("server.dpr_buffered")/steps, "count")
	r.set("syncmodel.dpr_wait_us_p50", nsTo(hist("server.dpr_wait_ns", b.srvBefore, b.srvAfter, 0.5), us), "us")
	r.set("syncmodel.dpr_wait_us_p99", nsTo(hist("server.dpr_wait_ns", b.srvBefore, b.srvAfter, 0.99), us), "us")
	r.set("syncmodel.progress_skew_max", float64(b.skewMax), "iters")

	r.set("kvstore.snapshot_publishes_per_step", float64(b.snapAfter-b.snapBefore)/steps, "count")
	r.set("kvstore.snapshot_publish_us_p50", nsTo(hist("server.snapshot_publish_ns", b.srvBefore, b.srvAfter, 0.5), us), "us")
	r.set("kvstore.snapshot_publish_us_p99", nsTo(hist("server.snapshot_publish_ns", b.srvBefore, b.srvAfter, 0.99), us), "us")

	// Timings that repeat too loosely between runs to gate end to end,
	// from the untraced phase.
	timings := map[string]metric{}
	stepTimings(a, timings)
	for n, m := range timings {
		r.set(n, m.Value, m.Unit)
	}

	aSteps := float64(a.steps)
	r.set("runtime.gc_per_kstep", 1000*float64(a.gcs)/aSteps, "count")
	r.set("runtime.gc_pause_ms_total", nsTo(int64(a.gcPause), ms), "ms")
	r.set("runtime.alloc_bytes_per_step", float64(a.allocBytes)/aSteps, "B")

	// The read tier and its load generator exist on reader workloads only;
	// elsewhere their figures read zero.
	ro := map[string]metric{}
	for _, n := range roMetricNames {
		ro[n.name] = metric{Unit: n.unit}
	}
	if a.ro != nil {
		roMetrics(a, ro)
	}
	for n, m := range ro {
		r.set(n, m.Value, m.Unit)
	}

	r.set("trace.overhead_share", 1-ratio(medianRate(b), medianRate(a)), "ratio")
	r.set("trace.unattributed_share", unattributed, "ratio")
	r.check("trace attribution", unattributed >= 0 && unattributed <= unattributedLimit,
		"compute → push → pull self times leave %.4f of step time unattributed (limit %.2f)", unattributed, unattributedLimit)
}

// stepTimings adds the phase's throughput and its step and sync timings
// that the end-to-end gate leaves out.
func stepTimings(p *phase, into map[string]metric) {
	into["steps_per_s"] = metric{Value: medianRate(p), Unit: "1/s"}
	into["sync_p50_ms"] = metric{Value: nsTo(percentile(p.syncNs, 50), time.Millisecond), Unit: "ms"}
	into["step_p99_ms"] = metric{Value: nsTo(percentile(p.stepNs, 99), time.Millisecond), Unit: "ms"}
	into["sync_p99_ms"] = metric{Value: nsTo(percentile(p.syncNs, 99), time.Millisecond), Unit: "ms"}
}

// medianRate is the phase's sustained step rate: the median over its
// throughput windows (whole-phase mean when the phase was too short to
// fill one).
func medianRate(p *phase) float64 {
	if len(p.rates) == 0 {
		return float64(p.steps) / p.wall.Seconds()
	}
	s := append([]float64(nil), p.rates...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

var roMetricNames = []struct{ name, unit string }{
	{"ro_p50_ms", "ms"}, {"ro_p99_ms", "ms"}, {"ro_miss_share", "ratio"}, {"ro_staleness_p99", "iters"},
	{"core.ro.service_us_p50", "us"}, {"core.ro.shed_ratio", "ratio"},
	{"loadgen.lag_ms_p99", "ms"}, {"loadgen.lag_ms_max", "ms"},
}
