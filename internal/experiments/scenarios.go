package experiments

import (
	"fmt"
	"math"

	"github.com/fluentps/fluentps/internal/metrics"
	"github.com/fluentps/fluentps/internal/sim"
	"github.com/fluentps/fluentps/internal/syncmodel"
)

func init() {
	register(&Experiment{
		ID:    "scenarios",
		Title: "Scenario matrix: every sync policy under churn, stragglers, loss, and server kills",
		Paper: "FluentPS §VI evaluates policies on a healthy cluster; this matrix is the standing " +
			"regression harness extending the comparison to faulty ones, with an exactly-once " +
			"audit in every cell that can lose or replay messages.",
		Run: runScenarios,
	})
}

// Scenario-matrix fault plans. Each is a hazard schedule parameterized by
// cluster size and budget, so the same plan scales from the smoke grid to
// the 1024-worker cells.
const (
	FaultNone        = "none"         // healthy cluster
	FaultChurn       = "churn"        // workers leave/rejoin + a mid-run straggle phase
	FaultKillPrimary = "kill-primary" // permanent primary kill, backup promoted
	FaultLossyWAN    = "lossy-wan"    // message loss + a transient server blackout
)

// ScenarioPolicies is the matrix's policy axis: one representative from
// each family in Table III plus the adaptive controller.
func ScenarioPolicies() []string {
	return []string{"bsp", "asp", "ssp:3", "dsps:2:0:8", "adaptive"}
}

// ScenarioTopologies is the matrix's topology axis.
func ScenarioTopologies() []string {
	return []string{sim.TopoUniform, sim.TopoHetero, sim.TopoGeo2}
}

// ScenarioFaults is the matrix's fault axis.
func ScenarioFaults() []string {
	return []string{FaultNone, FaultChurn, FaultKillPrimary, FaultLossyWAN}
}

// ScenarioCell is one scorecard row: a (policy, topology, fault) cell's
// scores and safety verdicts.
type ScenarioCell struct {
	Name     string `json:"name"`
	Policy   string `json:"policy"`
	Topology string `json:"topology"`
	Fault    string `json:"fault"`
	Workers  int    `json:"workers"`

	Updates    int     `json:"updates"`
	Throughput float64 `json:"throughput"`
	Regret     float64 `json:"regret"`
	TimeLoss   float64 `json:"time_loss"`
	FinalLoss  float64 `json:"final_loss"`

	DPRs        int `json:"dprs"`
	Switches    int `json:"switches,omitempty"`
	Retransmits int `json:"retransmits,omitempty"`
	DedupHits   int `json:"dedup_hits,omitempty"`
	LostMsgs    int `json:"lost_msgs,omitempty"`
	Departed    int `json:"departed,omitempty"`
	Rejoined    int `json:"rejoined,omitempty"`
	Promotions  int `json:"promotions,omitempty"`
	Recoveries  int `json:"recoveries,omitempty"`

	ExactlyOnce    bool   `json:"exactly_once"`
	ExactlyOnceErr string `json:"exactly_once_err,omitempty"`
	VTrainMonotone bool   `json:"vtrain_monotone"`
}

// ScenarioGroup compares the adaptive controller against the
// hindsight-best fixed policy within one (topology, fault) group.
type ScenarioGroup struct {
	Topology        string  `json:"topology"`
	Fault           string  `json:"fault"`
	BestFixed       string  `json:"best_fixed"`
	BestFixedRegret float64 `json:"best_fixed_regret"`
	AdaptiveRegret  float64 `json:"adaptive_regret"`
	// Ratio = adaptive regret / best fixed regret; ≤ WinTolerance counts
	// as a win (dominates or ties).
	Ratio float64 `json:"adaptive_over_best"`
	Win   bool    `json:"win"`
	// Hazard marks groups counted in the dominance stat: every group
	// whose topology is non-uniform or whose fault plan is non-empty.
	Hazard bool `json:"hazard"`
}

// ScenarioWinTolerance is the tie margin for the dominance stat: adaptive
// "dominates or ties" a group when its time-averaged loss is within 10%
// of the best fixed policy chosen in hindsight for that group.
const ScenarioWinTolerance = 1.10

// ScenarioSweepResult is the full matrix scorecard.
type ScenarioSweepResult struct {
	Cells  []ScenarioCell  `json:"cells"`
	Groups []ScenarioGroup `json:"groups"`
	// Dominance stats over hazard groups (topology ≠ uniform or fault ≠
	// none): the adaptive controller must win ≥ 80% of them (gated in CI).
	HazardGroups  int     `json:"hazard_groups"`
	HazardWins    int     `json:"hazard_wins"`
	DominanceRate float64 `json:"dominance_rate"`
	WinTolerance  float64 `json:"win_tolerance"`
}

// scenarioScale sizes one grid tier. The full tier honors the acceptance
// floor (≥1000 workers in the largest cells); the quick tier prunes to
// smoke-test size so `make ci` stays under a minute.
type scenarioScale struct {
	healthyWorkers int // no-fault cells
	hazardWorkers  int // cells with an active fault plan
	servers        int
	budget         float64
}

func scenarioScaleFor(opts Options) scenarioScale {
	if opts.Quick {
		return scenarioScale{healthyWorkers: 64, hazardWorkers: 32, servers: 2, budget: 12}
	}
	return scenarioScale{healthyWorkers: 1024, hazardWorkers: 256, servers: 4, budget: 16}
}

// scenarioFaultPlan instantiates one named fault plan for a cluster of W
// workers over a budget of B seconds. Returned as mutations on the
// scenario so a plan can also set replicas, loss, and timers.
func scenarioFaultPlan(sc *sim.Scenario, fault string) error {
	w, b := sc.Workers, sc.Budget
	switch fault {
	case FaultNone:
		return nil
	case FaultChurn:
		// ~10% of workers leave a third of the way in; half of the
		// leavers come back, the rest are gone for good. A straggle phase
		// slows a fixed set of other workers for the middle of the run —
		// a learnable shift the sync policy can react to, unlike a
		// rotation faster than any forecast horizon.
		n := w / 10
		if n < 2 {
			n = 2
		}
		// Churn the high ranks so the churn set and the straggle set
		// (which afflicts the low ranks) stay disjoint.
		for i := 0; i < n; i++ {
			ev := sim.ChurnEvent{Worker: w - 1 - i, LeaveAt: 0.3*b + 0.02*float64(i)}
			if i%2 == 0 {
				ev.RejoinAt = 0.65 * b
			}
			sc.Hazards.Churn = append(sc.Hazards.Churn, ev)
		}
		sc.Hazards.Straggle = []sim.StragglePhase{{
			From: 0.15 * b, Until: 0.6 * b, Count: max(1, w/8), Factor: 4,
		}}
		return nil
	case FaultKillPrimary:
		// Permanent kill of the rank-0 primary at 40% of the budget; the
		// backup is promoted after the detection delay and the cell's
		// exactly-once audit runs across the hand-off.
		sc.Replicas = 2
		sc.DetectDelay = 0.5
		sc.RTO = 0.5
		sc.Hazards.Failures = []sim.ServerFailure{{Server: 0, KillAt: 0.4 * b}}
		return nil
	case FaultLossyWAN:
		// Independent message loss (cross-DC only under geo2) plus a
		// transient blackout of server 1: the retransmission and dedup
		// paths both see real traffic.
		sc.LinkLoss = 0.05
		sc.RTO = 0.5
		sc.Hazards.Failures = []sim.ServerFailure{{
			Server: 1, KillAt: 0.35 * b, Transient: true, RecoverAt: 0.45 * b,
		}}
		return nil
	default:
		return fmt.Errorf("experiments: unknown fault plan %q", fault)
	}
}

// ScenarioGrid builds the full matrix: every policy × topology × fault
// cell as a declarative sim.Scenario. Each cell gets a distinct
// deterministic seed derived from opts.Seed and its grid position, and
// the same (topology, fault) pair replays the identical hazard schedule
// under every policy — that is what makes the regret columns comparable.
func ScenarioGrid(opts Options) ([]sim.Scenario, error) {
	scale := scenarioScaleFor(opts)
	var grid []sim.Scenario
	groupSeed := opts.Seed
	for _, topo := range ScenarioTopologies() {
		for _, fault := range ScenarioFaults() {
			groupSeed++
			for _, policy := range ScenarioPolicies() {
				workers := scale.healthyWorkers
				if fault != FaultNone {
					workers = scale.hazardWorkers
				}
				sc := sim.Scenario{
					Name:     fmt.Sprintf("%s/%s/%s", policy, topo, fault),
					Policy:   policy,
					Topology: topo,
					Workers:  workers,
					Servers:  scale.servers,
					Budget:   scale.budget,
					// SGD with W concurrent contributors has an effective
					// step of ~W·η on near-simultaneous updates; scale η
					// down so no cell diverges and regret measures
					// staleness, not blow-up. 0.6 sits where neither
					// extreme wins by default: higher and freshness (BSP)
					// dominates every cell, lower and raw throughput (ASP)
					// does.
					Eta: 0.6 / float64(workers),
					// Seed by (topology, fault) only: every policy in a
					// group sees the same dataset, compute draws, and
					// hazard timing.
					Seed: groupSeed,
				}
				if policy == "adaptive" {
					// Evaluate every simulated second with single-step
					// hysteresis: the matrix budgets are short, so the
					// adaptation transient must be too. SpreadHi 2.5 keeps
					// a 4× straggler spread decisively past the bimodal
					// bar instead of sitting on the default boundary.
					sc.AdaptEvery = 1
					sc.Adaptive = syncmodel.AdaptiveConfig{SpreadHi: 2.5}
				}
				if err := scenarioFaultPlan(&sc, fault); err != nil {
					return nil, err
				}
				if err := sc.Validate(); err != nil {
					return nil, fmt.Errorf("experiments: cell %s: %w", sc.Name, err)
				}
				grid = append(grid, sc)
			}
		}
	}
	return grid, nil
}

// ScenarioReps is how many seed replicates each cell averages over: one
// simulated run is a noisy draw, and the dominance gate compares means.
const ScenarioReps = 5

// runCell runs one grid cell ScenarioReps times under distinct seeds and
// averages the scores; safety verdicts are ANDed, so one bad replicate
// fails the cell.
func runCell(sc sim.Scenario) (ScenarioCell, error) {
	cell := ScenarioCell{
		Name: sc.Name, Policy: sc.Policy, Topology: sc.Topology,
		Fault: scenarioFaultName(sc), Workers: sc.Workers,
		ExactlyOnce: true, VTrainMonotone: true,
	}
	for rep := 0; rep < ScenarioReps; rep++ {
		rsc := sc
		rsc.Seed = sc.Seed + int64(rep)*7919
		r, err := sim.RunScenario(rsc)
		if err != nil {
			return cell, fmt.Errorf("experiments: cell %s rep %d: %w", sc.Name, rep, err)
		}
		cell.Updates += r.Updates
		cell.Throughput += r.Throughput
		cell.Regret += r.Regret
		cell.TimeLoss += r.TimeLoss
		cell.FinalLoss += r.FinalLoss
		cell.DPRs += r.DPRs
		cell.Switches += r.Switches
		cell.Retransmits += r.Retransmits
		cell.DedupHits += r.DedupHits
		cell.LostMsgs += r.LostMsgs
		cell.Departed += r.Departed
		cell.Rejoined += r.Rejoined
		cell.Promotions += r.Promotions
		cell.Recoveries += r.Recoveries
		if !r.ExactlyOnce {
			cell.ExactlyOnce = false
			if cell.ExactlyOnceErr == "" {
				cell.ExactlyOnceErr = r.ExactlyOnceErr
			}
		}
		cell.VTrainMonotone = cell.VTrainMonotone && r.VTrainMonotone
	}
	n := float64(ScenarioReps)
	cell.Throughput /= n
	cell.Regret /= n
	cell.TimeLoss /= n
	cell.FinalLoss /= n
	for _, p := range []*int{
		&cell.Updates, &cell.DPRs, &cell.Switches, &cell.Retransmits,
		&cell.DedupHits, &cell.LostMsgs, &cell.Departed, &cell.Rejoined,
		&cell.Promotions, &cell.Recoveries,
	} {
		*p = *p / ScenarioReps
	}
	return cell, nil
}

// ScenarioSweep runs the matrix and assembles the scorecard. Exported for
// fluentbench -scenarios (BENCH_scenarios.json) and the scenarios
// experiment; the smoke tier in `make ci` runs it with Quick set.
func ScenarioSweep(opts Options) (*ScenarioSweepResult, error) {
	grid, err := ScenarioGrid(opts)
	if err != nil {
		return nil, err
	}
	res := &ScenarioSweepResult{WinTolerance: ScenarioWinTolerance}
	type groupKey struct{ topo, fault string }
	groups := map[groupKey]*ScenarioGroup{}
	var order []groupKey
	for _, sc := range grid {
		cell, err := runCell(sc)
		if err != nil {
			return nil, err
		}
		fault := cell.Fault
		res.Cells = append(res.Cells, cell)

		k := groupKey{sc.Topology, fault}
		g, ok := groups[k]
		if !ok {
			g = &ScenarioGroup{
				Topology: sc.Topology, Fault: fault,
				BestFixedRegret: math.Inf(1), AdaptiveRegret: math.Inf(1),
				Hazard: sc.Topology != sim.TopoUniform || fault != FaultNone,
			}
			groups[k] = g
			order = append(order, k)
		}
		// The dominance comparison runs on TimeLoss — the wall-clock score
		// that charges both for staleness and for time parked at barriers.
		score := cell.TimeLoss
		if cell.Updates == 0 {
			// A policy that applied nothing must not win its group.
			score = math.Inf(1)
		}
		if sc.Policy == "adaptive" {
			g.AdaptiveRegret = score
		} else if score < g.BestFixedRegret {
			g.BestFixed, g.BestFixedRegret = sc.Policy, score
		}
	}
	for _, k := range order {
		g := groups[k]
		g.Ratio = g.AdaptiveRegret / g.BestFixedRegret
		g.Win = g.AdaptiveRegret <= g.BestFixedRegret*ScenarioWinTolerance
		res.Groups = append(res.Groups, *g)
		if g.Hazard {
			res.HazardGroups++
			if g.Win {
				res.HazardWins++
			}
		}
	}
	if res.HazardGroups > 0 {
		res.DominanceRate = float64(res.HazardWins) / float64(res.HazardGroups)
	}
	return res, nil
}

// scenarioFaultName recovers the fault-plan name from a grid cell (the
// grid encodes it as the last /-separated component of the name).
func scenarioFaultName(sc sim.Scenario) string {
	for i := len(sc.Name) - 1; i >= 0; i-- {
		if sc.Name[i] == '/' {
			return sc.Name[i+1:]
		}
	}
	return FaultNone
}

func runScenarios(opts Options) (*Report, error) {
	res, err := ScenarioSweep(opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	table := &metrics.Table{
		Title: "Scenario matrix scorecard",
		Headers: []string{"cell", "workers", "updates", "time-loss", "regret", "final-loss",
			"retrans", "dedup", "promote", "exactly-once", "monotone"},
	}
	for _, c := range res.Cells {
		table.AddRow(c.Name, fmt.Sprint(c.Workers), fmt.Sprint(c.Updates),
			metrics.F(c.TimeLoss), metrics.F(c.Regret), metrics.F(c.FinalLoss),
			fmt.Sprint(c.Retransmits), fmt.Sprint(c.DedupHits), fmt.Sprint(c.Promotions),
			fmt.Sprint(c.ExactlyOnce), fmt.Sprint(c.VTrainMonotone))
	}
	rep.Tables = append(rep.Tables, table)
	dom := &metrics.Table{
		Title:   "Adaptive vs hindsight-best fixed policy, per (topology, fault) group",
		Headers: []string{"topology", "fault", "best-fixed", "best-regret", "adaptive-regret", "ratio", "win"},
	}
	for _, g := range res.Groups {
		dom.AddRow(g.Topology, g.Fault, g.BestFixed, metrics.F(g.BestFixedRegret),
			metrics.F(g.AdaptiveRegret), metrics.F(g.Ratio), fmt.Sprint(g.Win))
	}
	rep.Tables = append(rep.Tables, dom)
	rep.Notef("adaptive dominated or tied (ratio ≤ %.2f) the best fixed policy on %d/%d hazard groups (%.0f%%)",
		res.WinTolerance, res.HazardWins, res.HazardGroups, 100*res.DominanceRate)
	audited := 0
	for _, c := range res.Cells {
		if c.ExactlyOnce && c.VTrainMonotone {
			audited++
		}
	}
	rep.Notef("exactly-once audit and V_train monotonicity held in %d/%d cells", audited, len(res.Cells))
	return rep, nil
}
