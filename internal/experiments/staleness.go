package experiments

import (
	"fmt"

	"github.com/fluentps/fluentps/internal/metrics"
	"github.com/fluentps/fluentps/internal/sim"
	"github.com/fluentps/fluentps/internal/syncmodel"
)

func init() {
	register(&Experiment{
		ID:    "abl-staleness",
		Title: "Ablation: the staleness-threshold trade-off (§III-E) — DPR frequency vs delayed gradients across s",
		Paper: "A high staleness threshold reduces DPRs but delays gradients badly; a low one guarantees timely updates at extra synchronization cost. PSSP exists to escape this trade-off.",
		Run:   runAblStaleness,
	})
}

func runAblStaleness(opts Options) (*Report, error) {
	w := alexNetC10(opts.Seed)
	workers := 32
	nIters := iters(opts, 400, 60)
	thresholds := []int{0, 1, 2, 3, 5, 8, 12}
	if opts.Quick {
		workers = 8
		thresholds = []int{0, 2, 8}
	}
	rep := &Report{}
	table := &metrics.Table{
		Title:   fmt.Sprintf("SSP staleness sweep — %d workers, lazy drains", workers),
		Headers: []string{"s", "dprs/100", "total time", "mean answer gap", "final acc"},
	}
	var sLow, sHigh *sim.Result
	for _, s := range thresholds {
		cfg := sim.Config{
			Arch:         sim.ArchFluentPS,
			Workers:      workers,
			Servers:      1,
			Model:        w.model,
			Train:        w.train,
			Test:         w.test,
			Sync:         syncmodel.SSP(s),
			Drain:        syncmodel.Lazy,
			UseEPS:       true,
			NewOptimizer: w.sgd(),
			BatchSize:    realBatch(workers),
			Iters:        nIters,
			Compute:      cpuCompute(workers),
			Net:          cpuNet(),
			Seed:         opts.Seed,
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprint(s),
			fmt.Sprintf("%.1f", res.DPRsPer100Iters(nIters)),
			metrics.F(res.TotalTime),
			fmt.Sprintf("%.2f", res.MeanAnswerGap),
			metrics.F(res.FinalAcc))
		if s == thresholds[0] {
			sLow = res
		}
		sHigh = res
	}
	rep.Tables = append(rep.Tables, table)
	rep.Notef("s=%d → s=%d: DPRs/100 fall %s while total time falls %s — the paper's fundamental trade-off",
		thresholds[0], thresholds[len(thresholds)-1],
		metrics.Pct(1-float64(sHigh.DPRs)/float64(max(1, sLow.DPRs))),
		metrics.Pct(1-sHigh.TotalTime/sLow.TotalTime))
	return rep, nil
}
