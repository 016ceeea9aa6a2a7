package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fluentps/fluentps/internal/core"
	"github.com/fluentps/fluentps/internal/dataset"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/mathx"
	"github.com/fluentps/fluentps/internal/mlmodel"
	"github.com/fluentps/fluentps/internal/optimizer"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// workload is one benchmark input: a training task on a cluster shape.
// BENCHMARK.json records why each was chosen and which layers it
// bypasses.
type workload struct {
	name             string
	tcp              bool // TCP loopback; false selects transport.ChanNetwork
	workers, servers int
	hidden           int // MLP hidden width; 0 selects the softmax model
	staleness        int // SSP bound; negative selects ASP
	batch            int
	lr               float64
	eps              bool // Elastic Parameter Slicing over the servers
	// stepsPerSec is the nominal per-worker step rate (2-CPU x86 box) that
	// sizes the fixed step count: a run trains seconds × stepsPerSec steps
	// per worker, so final_loss is always taken after the same number of
	// samples, whatever the speed of the code under test.
	stepsPerSec float64
	// roRate is the open-loop read-only pull rate (pulls/s); zero runs no
	// reader.
	roRate float64
}

// workloads lists every workload the command runs. BENCHMARK.json gates
// ssp-tcp-small and ro-tcp-mixed. asp-chan-large (2 workers × 2 servers
// on ChanNetwork, ASP, 1 MB pushes over EPS keys) drives bytes through
// worker scatter/gather, wave apply and shard gather while bypassing the
// codec and TCP, the control on which a transport change must show no
// change; it runs by name but is not gated, because with two CPU-bound
// workers on a 2-CPU box its step times spread by up to a quarter between
// runs (host speed noise), the largest bound the gate allows.
var workloads = []workload{
	{name: "ssp-tcp-small", tcp: true, workers: 2, servers: 1, staleness: 2,
		batch: 16, lr: 0.1, stepsPerSec: 2800},
	{name: "asp-chan-large", workers: 2, servers: 2, hidden: 1024, staleness: -1,
		batch: 4, lr: 0.03, eps: true, stepsPerSec: 375},
	{name: "ro-tcp-mixed", tcp: true, workers: 1, servers: 1, hidden: 512, staleness: -1,
		batch: 8, lr: 0.03, stepsPerSec: 290, roRate: 200},
}

func workloadNamed(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func (w *workload) syncModel() syncmodel.Model {
	if w.staleness < 0 {
		return syncmodel.ASP()
	}
	return syncmodel.SSP(w.staleness)
}

const (
	// warmupSteps per worker run before the first timed step: they open
	// the TCP connections and the mux stream and fill the message pools.
	warmupSteps = 20
	// opTimeout bounds every push and pull, so a wedged cluster fails the
	// run instead of hanging it.
	opTimeout = 20 * time.Second
	// roLatencyLimit is the latency (from due time) a read-only pull must
	// meet; later pulls count as misses.
	roLatencyLimit = 25 * time.Millisecond
)

// task is the training problem every node of one run agrees on.
type task struct {
	train, test *dataset.Dataset
	model       mlmodel.Model
	layout      *keyrange.Layout
	assign      *keyrange.Assignment
	w0          []float64
}

// newTask synthesizes the dataset and initial parameters from seed, the
// same way core.Run derives them, so the single-worker reference run
// starts from identical inputs.
func newTask(w *workload, seed int64) (*task, error) {
	train, test := dataset.CIFAR100Like(seed)
	var model mlmodel.Model
	var err error
	if w.hidden == 0 {
		model, err = mlmodel.NewSoftmax(train.Classes, train.Dim, nil)
	} else {
		model, err = mlmodel.NewMLP(train.Dim, w.hidden, train.Classes, nil)
	}
	if err != nil {
		return nil, err
	}
	layout := model.Layout()
	var assign *keyrange.Assignment
	if w.eps {
		if layout, err = keyrange.EPSLayout(layout.TotalDim(), 4*w.servers); err != nil {
			return nil, err
		}
		assign, err = keyrange.EPS(layout, w.servers)
	} else {
		assign, err = keyrange.DefaultSlicing(layout, w.servers)
	}
	if err != nil {
		return nil, err
	}
	w0 := make([]float64, model.Dim())
	model.Init(mathx.RNG(seed, "core.init"), w0)
	return &task{train: train, test: test, model: model, layout: layout, assign: assign, w0: w0}, nil
}

// trainer is one worker's closed training loop.
type trainer struct {
	c      *cluster
	rank   int
	w      *core.Worker
	ep     *countingEndpoint
	raw    transport.Endpoint
	shard  *dataset.Dataset
	opt    optimizer.Optimizer
	rng    *rand.Rand
	params []float64
	grad   []float64
	delta  []float64
	iter   int32
	log    *spanLog

	record         bool
	stepNs, syncNs []int64
	attempted      int64
	failed         int64
}

// step runs one iteration: compute, push, pull, then wait for the push
// acknowledgements (each worker waits for its pull before the next step).
func (t *trainer) step(ctx context.Context) error {
	c, tr := t.c, t.log
	id := stepID(t.rank, t.iter)
	start := time.Now()
	var s time.Time
	if tr != nil {
		s = time.Now()
	}
	x, y := t.shard.Batch(t.rng, c.w.batch)
	if tr != nil {
		tr.add(id, spanBatch, s, time.Now())
		s = time.Now()
	}
	c.task.model.Gradient(t.params, x, y, t.grad)
	if tr != nil {
		tr.add(id, spanGradient, s, time.Now())
		s = time.Now()
	}
	t.opt.Delta(t.params, t.grad, t.delta)
	if tr != nil {
		tr.add(id, spanDelta, s, time.Now())
	}
	syncStart := time.Now()
	c.pushCalls.Add(1)
	t.attempted += 2
	push, err := t.w.SPushAsync(ctx, int(t.iter), t.delta)
	if tr != nil {
		tr.add(id, spanPushCall, syncStart, time.Now())
	}
	if err != nil {
		t.failed += 2
		return err
	}
	c.pushesIssued.Add(int64(c.shards))
	if tr != nil {
		s = time.Now()
	}
	pullErr := t.w.SPull(ctx, int(t.iter), t.params)
	if tr != nil {
		tr.add(id, spanPull, s, time.Now())
		s = time.Now()
	}
	pushErr := push.Wait(ctx)
	end := time.Now()
	if tr != nil {
		tr.add(id, spanPushWait, s, end)
		tr.add(id, spanStep, start, end)
	}
	if pullErr != nil {
		t.failed++
	}
	if pushErr != nil {
		t.failed++
	}
	if err := errors.Join(pullErr, pushErr); err != nil {
		return err
	}
	if t.record {
		c.stepsDone.Add(1)
		t.stepNs = append(t.stepNs, int64(end.Sub(start)))
		t.syncNs = append(t.syncNs, int64(end.Sub(syncStart)))
	}
	t.iter++
	return nil
}

// cluster is one run's servers, workers and read-tier client.
type cluster struct {
	w      *workload
	task   *task
	traced bool
	shards int // servers that own keys: each push sends one message to each

	servers []*core.Server
	srvEPs  []*countingEndpoint
	srvRaw  []transport.Endpoint
	wRaw    []transport.Endpoint
	srvErrs []error
	srvWG   sync.WaitGroup

	trainers []*trainer

	roLn    net.Listener
	roCli   *transport.MuxSession
	roSrv   *transport.MuxSession
	roConn  *roConn
	ro      *core.ROClient
	roWG    sync.WaitGroup
	roDst   []float64
	roEpoch uint32

	srvTel, wTel []*telemetry.Registry

	// pushCalls counts SPushAsync calls over the cluster's life;
	// pushesIssued counts the per-shard push messages they sent.
	pushCalls    atomic.Int64
	pushesIssued atomic.Int64
	// stepsDone counts timed steps completed, for the progress sampler.
	stepsDone atomic.Int64
}

// newCluster builds and starts the servers, workers and (for reader
// workloads) the read-tier session. Traced clusters get span logs sized
// for steps iterations per worker, and one telemetry registry per node.
func newCluster(w *workload, tk *task, seed int64, traced bool, steps int) (c *cluster, err error) {
	c = &cluster{w: w, task: tk, traced: traced}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	for m := 0; m < w.servers; m++ {
		if len(tk.assign.KeysOf(m)) > 0 {
			c.shards++
		}
	}
	if w.tcp {
		book := map[transport.NodeID]string{}
		for m := 0; m < w.servers; m++ {
			ep, err := transport.ListenTCP(transport.Server(m), "127.0.0.1:0", nil)
			if err != nil {
				return c, err
			}
			c.srvRaw = append(c.srvRaw, ep)
			book[transport.Server(m)] = ep.Addr()
		}
		for n := 0; n < w.workers; n++ {
			ep, err := transport.ListenTCP(transport.Worker(n), "127.0.0.1:0", book)
			if err != nil {
				return c, err
			}
			c.wRaw = append(c.wRaw, ep)
			for _, s := range c.srvRaw {
				s.(*transport.TCPEndpoint).SetPeer(transport.Worker(n), ep.Addr())
			}
		}
	} else {
		fabric := transport.NewChanNetwork(4 * (w.workers + w.servers))
		for m := 0; m < w.servers; m++ {
			c.srvRaw = append(c.srvRaw, fabric.Endpoint(transport.Server(m)))
		}
		for n := 0; n < w.workers; n++ {
			c.wRaw = append(c.wRaw, fabric.Endpoint(transport.Worker(n)))
		}
	}

	c.srvErrs = make([]error, w.servers)
	for m, raw := range c.srvRaw {
		var log *spanLog
		var reg *telemetry.Registry
		if traced {
			// Per step and worker: a push and a pull received, answered.
			log = newSpanLog(4 * w.workers * (steps + warmupSteps))
			reg = telemetry.New()
		}
		ep := wrapEndpoint(raw, log, spanServerSend, spanServerRecvWait)
		srv, err := core.NewServer(ep, core.ServerConfig{
			Rank:       m,
			NumWorkers: w.workers,
			Layout:     tk.layout,
			Assignment: tk.assign,
			Model:      w.syncModel(),
			Drain:      syncmodel.Lazy,
			Init: func(k keyrange.Key, seg []float64) {
				copy(seg, tk.layout.Slice(tk.w0, k))
			},
			Seed:      seed,
			Telemetry: reg,
		})
		if err != nil {
			return c, err
		}
		c.servers = append(c.servers, srv)
		c.srvEPs = append(c.srvEPs, ep)
		c.srvTel = append(c.srvTel, reg)
		c.srvWG.Add(1)
		go func(m int) {
			defer c.srvWG.Done()
			c.srvErrs[m] = srv.Run()
		}(m)
	}

	for n, raw := range c.wRaw {
		var log, trLog *spanLog
		var reg *telemetry.Registry
		if traced {
			// Per step: a push and a pull sent to each server, and the
			// step with its six children.
			log = newSpanLog(2 * w.servers * (steps + warmupSteps))
			trLog = newSpanLog(7 * (steps + warmupSteps))
			reg = telemetry.New()
		}
		ep := wrapEndpoint(raw, log, spanWorkerSend, 0)
		wk, err := core.NewWorker(ep, core.WorkerConfig{
			Rank:       n,
			Layout:     tk.layout,
			Assignment: tk.assign,
			Timeout:    opTimeout,
			Telemetry:  reg,
		})
		if err != nil {
			return c, err
		}
		shard, err := tk.train.Shard(n, w.workers)
		if err != nil {
			_ = wk.Close()
			return c, err
		}
		c.wTel = append(c.wTel, reg)
		c.trainers = append(c.trainers, &trainer{
			c: c, rank: n, w: wk, ep: ep, raw: raw, shard: shard,
			opt:    &optimizer.SGD{LR: w.lr},
			rng:    mathx.RNG(seed, fmt.Sprintf("core.worker.%d", n)),
			params: append([]float64(nil), tk.w0...),
			grad:   make([]float64, len(tk.w0)),
			delta:  make([]float64, len(tk.w0)),
			log:    trLog,
		})
	}

	if w.roRate > 0 {
		if err := c.startReadTier(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// startReadTier opens one mux session over TCP to server 0, whose
// accepted stream is served by Server.HandleRO.
func (c *cluster) startReadTier() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.roLn = ln
	cli, err := transport.DialMux(ln.Addr().String(), transport.MuxConfig{})
	if err != nil {
		return err
	}
	c.roCli = cli
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	c.roSrv = transport.NewMuxServer(conn, transport.MuxConfig{})
	c.roWG.Add(1)
	go func() {
		defer c.roWG.Done()
		st, err := c.roSrv.AcceptStream()
		if err != nil {
			return
		}
		_ = c.servers[0].HandleRO(st)
	}()
	st, err := cli.OpenStream()
	if err != nil {
		return err
	}
	c.roConn = &roConn{conn: st}
	c.ro = core.NewROClient(c.roConn, 0)
	c.roDst = make([]float64, len(c.servers[0].Keys()))
	return nil
}

// train runs steps iterations on every worker concurrently and, when
// ro is non-nil, the open-loop reader beside them until they finish.
func (c *cluster) train(ctx context.Context, steps int, ro *roStats) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.trainers))
	for i, t := range c.trainers {
		wg.Add(1)
		go func(i int, t *trainer) {
			defer wg.Done()
			for k := 0; k < steps; k++ {
				if err := t.step(ctx); err != nil {
					errs[i] = fmt.Errorf("worker %d step %d: %w", t.rank, t.iter, err)
					return
				}
			}
		}(i, t)
	}
	stop := make(chan struct{})
	roDone := make(chan struct{})
	if ro != nil {
		go func() {
			defer close(roDone)
			c.readLoop(ctx, stop, ro)
		}()
	} else {
		close(roDone)
	}
	wg.Wait()
	close(stop)
	<-roDone
	return errors.Join(errs...)
}

// readLoop issues full-model read-only pulls on a fixed schedule (an open
// loop: a slow pull delays the next one but not its due time) until stop
// closes. Latency counts from each pull's due time.
func (c *cluster) readLoop(ctx context.Context, stop <-chan struct{}, st *roStats) {
	period := time.Duration(float64(time.Second) / c.w.roRate)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sheds := c.roConn.retries.Load()
		sent := time.Now()
		epoch, vtrain, err := c.ro.Pull(ctx, c.roDst)
		done := time.Now()
		issued := c.pushCalls.Load()
		st.pulls++
		if err != nil {
			st.failed++
			st.missed++
			return
		}
		if c.roConn.retries.Load() > sheds || done.Sub(due) > roLatencyLimit {
			st.missed++
		}
		if epoch < c.roEpoch {
			st.backwards++
		}
		c.roEpoch = epoch
		st.latNs = append(st.latNs, int64(done.Sub(due)))
		st.lagNs = append(st.lagNs, int64(sent.Sub(due)))
		st.serviceNs = append(st.serviceNs, int64(done.Sub(sent)))
		st.staleness = append(st.staleness, issued-int64(vtrain))
	}
}

// logs returns the cluster's span logs: trainers, worker endpoints,
// server endpoints (nil entries when untraced).
func (c *cluster) logs() (trainers, workerEPs, serverEPs []*spanLog) {
	for _, t := range c.trainers {
		trainers = append(trainers, t.log)
		workerEPs = append(workerEPs, t.ep.log)
	}
	for _, ep := range c.srvEPs {
		serverEPs = append(serverEPs, ep.log)
	}
	return trainers, workerEPs, serverEPs
}

// resetSpans drops the spans recorded so far (warm-up), keeping capacity.
func (c *cluster) resetSpans() {
	a, b, d := c.logs()
	for _, logs := range [][]*spanLog{a, b, d} {
		for _, l := range logs {
			if l != nil {
				l.mu.Lock()
				l.spans = l.spans[:0]
				l.mu.Unlock()
			}
		}
	}
}

// warmup runs the untimed first iterations (and, with a reader, a few
// read-only pulls that open the mux stream).
func (c *cluster) warmup(ctx context.Context) error {
	if c.ro != nil {
		for i := 0; i < 5; i++ {
			epoch, _, err := c.ro.Pull(ctx, c.roDst)
			if err != nil {
				return fmt.Errorf("warm-up read-only pull: %w", err)
			}
			c.roEpoch = epoch
		}
	}
	return c.train(ctx, warmupSteps, nil)
}

// finalParams pulls the global model once every worker has finished.
func (c *cluster) finalParams(ctx context.Context) ([]float64, error) {
	t := c.trainers[0]
	last := int(t.iter) - 1
	for _, o := range c.trainers {
		if int(o.iter)-1 < last {
			last = int(o.iter) - 1
		}
	}
	final := make([]float64, len(c.task.w0))
	if err := t.w.SPull(ctx, last, final); err != nil {
		return nil, fmt.Errorf("final pull: %w", err)
	}
	return final, nil
}

// finish takes the final parameters, stops the servers and releases the
// cluster.
func (c *cluster) finish(ctx context.Context) ([]float64, []syncmodel.Stats, error) {
	defer c.close()
	final, err := c.finalParams(ctx)
	if err != nil {
		return nil, nil, err
	}
	stats, err := c.shutdown()
	return final, stats, err
}

// shutdown stops the servers and returns their synchronization counters.
func (c *cluster) shutdown() ([]syncmodel.Stats, error) {
	ctl := c.trainers[0].raw
	for m := range c.servers {
		if err := ctl.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)}); err != nil {
			return nil, fmt.Errorf("shutdown server %d: %w", m, err)
		}
	}
	c.srvWG.Wait()
	stats := make([]syncmodel.Stats, len(c.servers))
	for m, srv := range c.servers {
		stats[m] = srv.Stats()
	}
	return stats, errors.Join(c.srvErrs...)
}

// close releases everything newCluster started and waits for its
// goroutines; safe on a partly built cluster.
func (c *cluster) close() {
	if c.roCli != nil {
		_ = c.roCli.Close()
	}
	if c.roSrv != nil {
		_ = c.roSrv.Close()
	}
	if c.roLn != nil {
		_ = c.roLn.Close()
	}
	c.roWG.Wait()
	for _, t := range c.trainers {
		_ = t.w.Close()
	}
	for _, ep := range c.wRaw {
		_ = ep.Close()
	}
	for _, ep := range c.srvRaw {
		_ = ep.Close()
	}
	c.srvWG.Wait()
}
