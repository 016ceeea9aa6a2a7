package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/fluentps/fluentps/internal/dataset"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/mathx"
	"github.com/fluentps/fluentps/internal/mlmodel"
	"github.com/fluentps/fluentps/internal/optimizer"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// ClusterConfig describes a complete in-process FluentPS training run:
// data-parallel workers, sharded servers, one synchronization model per
// server (they may differ — that is the point of condition-aware control).
type ClusterConfig struct {
	Workers, Servers int
	Model            mlmodel.Model
	Train, Test      *dataset.Dataset
	// SyncFor returns server m's synchronization model; if nil every
	// server runs Sync.
	Sync    syncmodel.Model
	SyncFor func(m int) syncmodel.Model
	Drain   syncmodel.DrainPolicy
	// NewOptimizer builds each worker's local optimizer (they hold
	// per-worker state such as momentum).
	NewOptimizer func() optimizer.Optimizer
	BatchSize    int
	Iters        int
	// UseEPS selects Elastic Parameter Slicing; false selects PS-Lite's
	// default (skew-prone) range slicing.
	UseEPS bool
	// EvalEvery > 0 makes worker 0 record test accuracy every that many
	// iterations.
	EvalEvery int
	Seed      int64
}

func (c *ClusterConfig) validate() error {
	switch {
	case c.Workers < 1 || c.Servers < 1:
		return fmt.Errorf("core: need ≥1 worker and ≥1 server, got %d/%d", c.Workers, c.Servers)
	case c.Model == nil || c.Train == nil:
		return fmt.Errorf("core: model and training data are required")
	case c.BatchSize < 1 || c.Iters < 1:
		return fmt.Errorf("core: need positive batch size and iterations, got %d/%d", c.BatchSize, c.Iters)
	case c.NewOptimizer == nil:
		return fmt.Errorf("core: an optimizer factory is required")
	case c.Sync.Pull == nil && c.SyncFor == nil:
		return fmt.Errorf("core: a synchronization model is required")
	}
	return nil
}

// AccPoint is one accuracy measurement during training.
type AccPoint struct {
	Iter int
	Acc  float64
}

// WorkerTimes is one worker's wall-clock split between gradient
// computation and synchronization (push/pull wait).
type WorkerTimes struct {
	Compute time.Duration
	Sync    time.Duration
}

// SyncShare returns the fraction of the worker's busy time spent waiting
// on synchronization.
func (w WorkerTimes) SyncShare() float64 {
	total := w.Compute + w.Sync
	if total == 0 {
		return 0
	}
	return float64(w.Sync) / float64(total)
}

// RunResult reports a training run's outcome.
type RunResult struct {
	FinalLoss, FinalAcc float64
	History             []AccPoint
	ServerStats         []syncmodel.Stats
	WorkerTimes         []WorkerTimes
	Elapsed             time.Duration
}

// Run executes a full data-parallel training job on an in-process
// channel network: the reference integration path exercising exactly the
// code a real TCP deployment runs. It runs to completion; use RunContext
// to bound or cancel a job.
func Run(cfg ClusterConfig) (*RunResult, error) {
	return RunContext(nil, cfg)
}

// RunContext is Run with a cancellation scope: ctx aborts in-flight
// push/pull operations and fails the job with the context's error. nil
// ctx means run to completion.
func RunContext(ctx context.Context, cfg ClusterConfig) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// With EPS the parameter space is re-keyed into even ranges; the
	// model's own layer layout stays untouched (keys are contiguous views
	// of the same flat vector).
	layout := cfg.Model.Layout()
	var assign *keyrange.Assignment
	var err error
	if cfg.UseEPS {
		layout, err = keyrange.EPSLayout(layout.TotalDim(), 4*cfg.Servers)
		if err != nil {
			return nil, err
		}
		assign, err = keyrange.EPS(layout, cfg.Servers)
	} else {
		assign, err = keyrange.DefaultSlicing(layout, cfg.Servers)
	}
	if err != nil {
		return nil, err
	}

	// Shared initial parameters: servers seed their shards from w0 and
	// every worker starts its local copy from the same vector.
	w0 := make([]float64, cfg.Model.Dim())
	cfg.Model.Init(mathx.RNG(cfg.Seed, "core.init"), w0)

	net := transport.NewChanNetwork(4 * (cfg.Workers + cfg.Servers))
	servers := make([]*Server, cfg.Servers)
	for m := 0; m < cfg.Servers; m++ {
		model := cfg.Sync
		if cfg.SyncFor != nil {
			model = cfg.SyncFor(m)
		}
		srv, err := NewServer(net.Endpoint(transport.Server(m)), ServerConfig{
			Rank:       m,
			NumWorkers: cfg.Workers,
			Layout:     layout,
			Assignment: assign,
			Model:      model,
			Drain:      cfg.Drain,
			Init: func(k keyrange.Key, seg []float64) {
				copy(seg, layout.Slice(w0, k))
			},
			Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		servers[m] = srv
	}
	var serverWG sync.WaitGroup
	serverErrs := make([]error, cfg.Servers)
	for m, srv := range servers {
		serverWG.Add(1)
		go func(m int, srv *Server) {
			defer serverWG.Done()
			serverErrs[m] = srv.Run()
		}(m, srv)
	}

	start := time.Now()
	var history []AccPoint
	var histMu sync.Mutex
	workerErrs := make([]error, cfg.Workers)
	workerTimes := make([]WorkerTimes, cfg.Workers)
	var workerWG sync.WaitGroup
	for n := 0; n < cfg.Workers; n++ {
		workerWG.Add(1)
		go func(n int) {
			defer workerWG.Done()
			workerErrs[n] = func() error {
				worker, err := NewWorker(net.Endpoint(transport.Worker(n)), WorkerConfig{
					Rank:       n,
					Layout:     layout,
					Assignment: assign,
				})
				if err != nil {
					return err
				}
				defer worker.Close()
				shard, err := cfg.Train.Shard(n, cfg.Workers)
				if err != nil {
					return err
				}
				opt := cfg.NewOptimizer()
				params := append([]float64(nil), w0...)
				grad := make([]float64, len(params))
				delta := make([]float64, len(params))
				rng := mathx.RNG(cfg.Seed, fmt.Sprintf("core.worker.%d", n))
				for i := 0; i < cfg.Iters; i++ {
					computeStart := time.Now()
					x, y := shard.Batch(rng, cfg.BatchSize)
					cfg.Model.Gradient(params, x, y, grad)
					opt.Delta(params, grad, delta)
					syncStart := time.Now()
					workerTimes[n].Compute += syncStart.Sub(computeStart)
					// Algorithm 1 worker loop: push without waiting for
					// acks, then wait on the pull (lines 4–5). Only the
					// final push is waited, so its delivery precedes the
					// shutdown of the servers; earlier pushes are
					// discarded so their acks recycle in-flight state as
					// they arrive.
					push, err := worker.SPushAsync(ctx, i, delta)
					if err != nil {
						return err
					}
					// The pull for w_{i+1} is pointless after the final
					// iteration (and would deadlock drop-stragglers
					// models once fast workers stop pushing).
					if i < cfg.Iters-1 {
						push.Discard()
						if err := worker.SPull(ctx, i, params); err != nil {
							return err
						}
					} else if err := push.Wait(ctx); err != nil {
						return err
					}
					workerTimes[n].Sync += time.Since(syncStart)
					if n == 0 && cfg.EvalEvery > 0 && cfg.Test != nil && (i+1)%cfg.EvalEvery == 0 {
						_, acc := cfg.Model.Evaluate(params, cfg.Test)
						histMu.Lock()
						history = append(history, AccPoint{Iter: i + 1, Acc: acc})
						histMu.Unlock()
					}
				}
				return nil
			}()
		}(n)
	}
	workerWG.Wait()
	elapsed := time.Since(start)

	// Final global parameters: read each shard directly after stopping
	// the servers (cleaner than a progress-perturbing extra pull).
	for m := 0; m < cfg.Servers; m++ {
		ep := net.Endpoint(transport.Worker(cfg.Workers)) // transient prober id
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)})
		ep.Close()
	}
	serverWG.Wait()
	// Close the server endpoints so each Run's receive stage winds down —
	// experiments call Run many times in one process.
	for m := 0; m < cfg.Servers; m++ {
		net.Endpoint(transport.Server(m)).Close()
	}

	for n, err := range workerErrs {
		if err != nil {
			return nil, fmt.Errorf("core: worker %d: %w", n, err)
		}
	}
	for m, err := range serverErrs {
		if err != nil {
			return nil, fmt.Errorf("core: server %d: %w", m, err)
		}
	}

	final := make([]float64, cfg.Model.Dim())
	for m, srv := range servers {
		vals, err := srv.shard.GatherShard(nil, srv.keys)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot server %d: %w", m, err)
		}
		if err := kvstore.Scatter(layout, final, srv.keys, vals); err != nil {
			return nil, err
		}
	}

	res := &RunResult{
		History:     history,
		Elapsed:     elapsed,
		ServerStats: make([]syncmodel.Stats, cfg.Servers),
		WorkerTimes: workerTimes,
	}
	for m, srv := range servers {
		res.ServerStats[m] = srv.Stats()
	}
	if cfg.Test != nil {
		res.FinalLoss, res.FinalAcc = cfg.Model.Evaluate(final, cfg.Test)
	}
	return res, nil
}
