package syncmodel

import (
	"fmt"
	"sort"
)

// This file implements the runtime-adaptive synchronization controller:
// a controller-of-controllers that watches the very signals FluentPS
// already tracks per shard — progress skew, DPR buffer depth, answer-gap
// histograms, per-worker push inter-arrival times — and exploits the
// paper's core claim (models are just condition pairs, so switching is a
// message, not a restart) to keep each shard on the cheapest model its
// current skew regime allows:
//
//   - Sync-Switch-style regime switching (Li et al.): homogeneous rounds
//     run BSP for freshest parameters; a persistently bimodal cluster
//     runs ASP (or drop-stragglers when the slow set is a small
//     minority) so fast workers stop paying for slow ones.
//   - DSSP-style staleness tuning (Zhao et al.): in between, a bounded
//     SSP whose threshold s re-tunes inside [MinS, MaxS] from the DPR
//     depth and observed skew.
//   - Elastic-BSP-style forecasting (Zhao et al.): per-worker iteration
//     times are EWMA-forecast from pull-answer→push gaps (compute time,
//     immune to barrier blocking), with a "silent worker" floor so a
//     stalled or departed worker's forecast keeps growing instead of
//     freezing at its last healthy value.

// AdaptiveConfig parameterizes the adaptive model and its switching
// policy. The zero value of the staleness triple (InitialS, MinS, MaxS)
// selects the defaults (3, 1, 8); zero policy knobs likewise select their
// defaults, so AdaptiveConfig{} is a complete, usable configuration.
type AdaptiveConfig struct {
	// InitialS, MinS, MaxS bound the bounded-SSP staleness threshold.
	InitialS, MinS, MaxS int

	// Hysteresis is how many consecutive re-evaluations must agree on a
	// new regime before the policy actually switches models (default 2).
	// It suppresses flapping when the spread hovers at a boundary.
	Hysteresis int
	// SpreadLo and SpreadHi split the forecast spread (slowest worker's
	// forecast / median forecast) into regimes: spread ≤ SpreadLo is
	// homogeneous (BSP), spread ≥ SpreadHi is bimodal (ASP or drop), and
	// in between runs the bounded SSP. Defaults 1.5 and 4.0.
	SpreadLo, SpreadHi float64
	// AllowDrop permits the bimodal regime to choose drop-stragglers
	// (quorum = N − stragglers) instead of ASP when the straggling set is
	// a small minority (≤ N/4). Off by default: dropping discards
	// gradients, which some training setups cannot tolerate.
	AllowDrop bool
	// DropOutlier is the multiple of the median forecast beyond which a
	// worker counts as a straggler (default 6).
	DropOutlier float64
	// EWMA is the smoothing factor for per-worker inter-push forecasts
	// (default 0.3; higher weighs recent gaps more).
	EWMA float64
}

// withDefaults resolves zero fields to their defaults. The staleness
// triple is resolved as a unit, like a DSPS spec's bounds: all-zero means
// "use the defaults", while any explicit value keeps the triple as given.
func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.InitialS == 0 && c.MinS == 0 && c.MaxS == 0 {
		c.InitialS, c.MinS, c.MaxS = 3, 1, 8
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 2
	}
	if c.SpreadLo == 0 {
		c.SpreadLo = 1.5
	}
	if c.SpreadHi == 0 {
		c.SpreadHi = 4.0
	}
	if c.DropOutlier == 0 {
		c.DropOutlier = 6.0
	}
	if c.EWMA == 0 {
		c.EWMA = 0.3
	}
	return c
}

// validate reports whether the resolved configuration is coherent.
func (c AdaptiveConfig) validate() error {
	r := c.withDefaults()
	if r.MinS < 0 || r.InitialS < r.MinS || r.MaxS < r.InitialS {
		return fmt.Errorf("syncmodel: invalid adaptive staleness range s0=%d [%d,%d] (need 0 ≤ MinS ≤ InitialS ≤ MaxS)",
			r.InitialS, r.MinS, r.MaxS)
	}
	if r.SpreadLo < 1 || r.SpreadHi < r.SpreadLo {
		return fmt.Errorf("syncmodel: invalid adaptive spread thresholds [%v,%v] (need 1 ≤ lo ≤ hi)",
			r.SpreadLo, r.SpreadHi)
	}
	if r.EWMA <= 0 || r.EWMA > 1 {
		return fmt.Errorf("syncmodel: adaptive EWMA factor must be in (0,1], got %v", r.EWMA)
	}
	return nil
}

// Adaptive returns the bounded-SSP model the adaptive policy runs in its
// middle regime: SSP whose threshold re-tunes after every V_train advance
// within [MinS, MaxS], exactly as DSPS does within its range. The model is
// useful standalone (-sync=adaptive without a driver degenerates to it),
// but its full behaviour — regime switching to BSP/ASP/drop — needs an
// AdaptiveDriver calling ReEvaluate periodically.
func Adaptive(cfg AdaptiveConfig) Model {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err.Error())
	}
	s := cfg.InitialS
	return Model{
		Name: fmt.Sprintf("Adaptive(s0=%d,[%d,%d])", cfg.InitialS, cfg.MinS, cfg.MaxS),
		Pull: func(st State, _, progress int) bool { return progress < st.VTrain()+s },
		Push: pushAll,
		Adjust: func(st State) {
			switch {
			case st.Delayed() > 0 && s < cfg.MaxS:
				s++
			case st.Delayed() == 0 && st.MaxProgress()-st.VTrain() < s-1 && s > cfg.MinS:
				s--
			}
		},
		fresh: func() Model { return Adaptive(cfg) },
		spec:  Spec{Kind: KindAdaptive, S: cfg.InitialS, Min: cfg.MinS, Max: cfg.MaxS},
		liveSpec: func() Spec {
			return Spec{Kind: KindAdaptive, S: s, Min: cfg.MinS, Max: cfg.MaxS}
		},
	}
}

// Signals is the per-shard observation vector the adaptive policy decides
// from. Everything here is already tracked by the controller and the
// telemetry layer; the driver merely assembles it.
type Signals struct {
	// Workers is N; VTrain the shard's closed-round count.
	Workers, VTrain int
	// Skew is fastest − slowest reported worker progress (0 before any
	// reports).
	Skew int
	// DPRDepth is the number of pulls waiting in the lazy buffer.
	DPRDepth int
	// MeanAnswerGap is the average staleness gap of answered pulls.
	MeanAnswerGap float64
	// Current is the live spec of the model the shard runs now.
	Current Spec
	// IterSecs[w] forecasts worker w's iteration time (pull-answer→push
	// gap) in seconds; 0 means no forecast yet for that worker.
	IterSecs []float64
}

// AdaptivePolicy turns a Signals vector into a model-switch decision. It
// is deterministic and purely computational — no clocks, no controller
// access — so it is unit-testable and replayable from recorded traces.
type AdaptivePolicy struct {
	cfg AdaptiveConfig

	// pendingKind/pendingN implement switch hysteresis: a regime change
	// is proposed only after Hysteresis consecutive evaluations agree.
	pendingKind Kind
	pendingN    int
}

// NewAdaptivePolicy builds a policy; cfg zero fields take defaults.
func NewAdaptivePolicy(cfg AdaptiveConfig) *AdaptivePolicy {
	return &AdaptivePolicy{cfg: cfg.withDefaults()}
}

// spreadOf computes the straggler structure of the forecast vector:
// spread = max/median over known forecasts, stragglers = #workers beyond
// DropOutlier×median, known = #workers with any forecast.
func (p *AdaptivePolicy) spreadOf(iter []float64) (spread float64, stragglers, known int) {
	var fs []float64
	for _, f := range iter {
		if f > 0 {
			fs = append(fs, f)
		}
	}
	known = len(fs)
	if known == 0 {
		return 1, 0, 0
	}
	sort.Float64s(fs)
	// Lower median: with exactly half the cluster slow, the upper median
	// would land on the slow mode and make a bimodal cluster look
	// homogeneous (spread = max/median = 1).
	median := fs[(known-1)/2]
	if median <= 0 {
		return 1, 0, known
	}
	maxF := fs[known-1]
	spread = maxF / median
	for _, f := range fs {
		if f > p.cfg.DropOutlier*median {
			stragglers++
		}
	}
	return spread, stragglers, known
}

// clampS bounds a staleness proposal into the configured range.
func (p *AdaptivePolicy) clampS(s int) int {
	if s < p.cfg.MinS {
		s = p.cfg.MinS
	}
	if s > p.cfg.MaxS {
		s = p.cfg.MaxS
	}
	return s
}

// Evaluate decides whether the shard should switch models. It returns the
// target spec and switch=true only when a change should happen now;
// otherwise it returns the (possibly re-tuned) current spec with
// switch=false. Kind changes are gated by hysteresis; staleness re-tuning
// within the bounded-SSP regime is left to the model's own Adjust hook.
func (p *AdaptivePolicy) Evaluate(sig Signals) (Spec, bool) {
	spread, stragglers, known := p.spreadOf(sig.IterSecs)
	if known*2 < sig.Workers {
		// Not enough forecasts to judge the regime; hold position.
		p.pendingN = 0
		return sig.Current, false
	}

	var target Spec
	switch {
	case spread >= p.cfg.SpreadHi:
		// Bimodal cluster. Drop a small straggling minority if allowed;
		// otherwise stop blocking anyone.
		if p.cfg.AllowDrop && stragglers > 0 && stragglers*4 <= sig.Workers {
			target = Spec{Kind: KindDropStragglers, C: float64(sig.Workers - stragglers)}
		} else {
			target = Spec{Kind: KindASP}
		}
	case spread <= p.cfg.SpreadLo:
		// Homogeneous: BSP costs little wall-clock and keeps parameters
		// fully fresh.
		target = Spec{Kind: KindBSP}
	default:
		// Moderate heterogeneity: bounded SSP. Seed the threshold from
		// the observed skew (deep DPR buffers push it up one extra step);
		// the model's Adjust hook fine-tunes from there.
		s := sig.Skew
		if sig.DPRDepth > 0 {
			s++
		}
		target = Spec{Kind: KindAdaptive, S: p.clampS(s), Min: p.cfg.MinS, Max: p.cfg.MaxS}
	}

	if target.Kind == sig.Current.Kind {
		// Same regime. The only in-regime retune worth a switch message
		// is a changed drop quorum (the quorum is baked into the push
		// condition, unlike SSP's self-adjusting threshold).
		p.pendingN = 0
		if target.Kind == KindDropStragglers && target.C != sig.Current.C {
			return target, true
		}
		return sig.Current, false
	}

	if target.Kind != p.pendingKind {
		p.pendingKind = target.Kind
		p.pendingN = 1
	} else {
		p.pendingN++
	}
	if p.pendingN < p.cfg.Hysteresis {
		return sig.Current, false
	}
	p.pendingN = 0
	return target, true
}

// AdaptiveDriver owns the adaptive loop for one shard: it accumulates
// per-worker iteration-time forecasts and, on each ReEvaluate tick,
// assembles Signals from the shard's controller and applies the policy's
// decision via SetModel. Like the controller itself it is single-owner
// state — the server's apply loop (or the simulator) is the only caller.
//
// The forecast signal needs care: under a blocking model (BSP, tight SSP)
// raw push-to-push gaps equalize — every worker pushes exactly once per
// round, so a straggler is invisible. The server instead measures the
// pull-answer → next-push gap, which is the worker's actual compute (plus
// transfer) time regardless of how long it then waits at a condition.
// Callers therefore feed both ObservePullAnswer and ObservePush;
// push-to-push is only a fallback before the first answered pull.
type AdaptiveDriver struct {
	policy *AdaptivePolicy
	// lastAnswer/lastPush are per-worker event times; -1 = never.
	lastAnswer []float64
	lastPush   []float64
	// computing[w] is true between w's pull answer and its next push — the
	// window where elapsed time measures compute, not blocking.
	computing []bool
	ewma      []float64 // smoothed iteration-time forecast; 0 = unknown
	switches  int
}

// NewAdaptiveDriver builds a driver for n workers.
func NewAdaptiveDriver(n int, cfg AdaptiveConfig) *AdaptiveDriver {
	ans := make([]float64, n)
	push := make([]float64, n)
	for i := range ans {
		ans[i], push[i] = -1, -1
	}
	return &AdaptiveDriver{
		policy:     NewAdaptivePolicy(cfg),
		lastAnswer: ans,
		lastPush:   push,
		computing:  make([]bool, n),
		ewma:       make([]float64, n),
	}
}

// ObservePullAnswer records that worker w's pull was answered at time now
// (seconds on any monotonic clock, wall or simulated): the worker starts
// computing its next iteration.
func (d *AdaptiveDriver) ObservePullAnswer(worker int, now float64) {
	if worker < 0 || worker >= len(d.lastAnswer) {
		return
	}
	d.lastAnswer[worker] = now
	d.computing[worker] = true
}

// ObservePush feeds one push arrival into worker w's iteration-time
// forecast (EWMA over answer→push gaps, falling back to push→push gaps
// before the first answered pull).
func (d *AdaptiveDriver) ObservePush(worker int, now float64) {
	if worker < 0 || worker >= len(d.lastPush) {
		return
	}
	gap := 0.0
	switch {
	case d.computing[worker] && d.lastAnswer[worker] >= 0:
		gap = now - d.lastAnswer[worker]
	case d.lastPush[worker] >= 0:
		gap = now - d.lastPush[worker]
	}
	if gap > 0 {
		if d.ewma[worker] == 0 {
			d.ewma[worker] = gap
		} else {
			a := d.policy.cfg.EWMA
			d.ewma[worker] = a*gap + (1-a)*d.ewma[worker]
		}
	}
	d.lastPush[worker] = now
	d.computing[worker] = false
}

// Depart clears worker w's forecast state when it leaves the job. Without
// this, the silent-worker floor in Forecasts grows without bound for a
// worker that will never push again, and the ever-worsening "straggler"
// drags every future spread evaluation toward the bimodal regime.
func (d *AdaptiveDriver) Depart(worker int) {
	if worker < 0 || worker >= len(d.ewma) {
		return
	}
	d.lastAnswer[worker] = -1
	d.lastPush[worker] = -1
	d.computing[worker] = false
	d.ewma[worker] = 0
}

// Rejoin resets worker w's forecast state when it comes back: whatever
// speed it had before leaving is stale, so it re-enters as "unknown" and
// rebuilds a forecast from fresh observations.
func (d *AdaptiveDriver) Rejoin(worker int) { d.Depart(worker) }

// Forecasts returns the effective per-worker iteration-time forecasts at
// time now. A worker that was answered but has stayed silent longer than
// its forecast is floored at its elapsed silence, so a stalled or
// departed worker keeps looking slower the longer it stays away (Elastic
// BSP's forecast with a churn-safe floor); a worker merely blocked in the
// DPR buffer gets no such floor — the wait is the server's doing, not
// slowness. Workers never observed forecast 0 (unknown).
func (d *AdaptiveDriver) Forecasts(now float64) []float64 {
	out := make([]float64, len(d.ewma))
	for w := range out {
		f := d.ewma[w]
		if d.computing[w] && d.lastAnswer[w] >= 0 && now-d.lastAnswer[w] > f {
			f = now - d.lastAnswer[w]
		}
		out[w] = f
	}
	return out
}

// Signals assembles the policy's observation vector from the controller
// and the driver's forecasts.
func (d *AdaptiveDriver) Signals(c *Controller, now float64) Signals {
	sig := Signals{
		Workers:       c.NumWorkers(),
		VTrain:        c.VTrain(),
		DPRDepth:      c.Buffered(),
		MeanAnswerGap: c.MeanAnswerGap(),
		IterSecs:      d.Forecasts(now),
	}
	if maxP := c.MaxProgress(); maxP >= 0 {
		minP := c.MinProgress()
		if minP < 0 {
			minP = 0
		}
		sig.Skew = maxP - minP
	}
	if spec, ok := c.Spec(); ok {
		sig.Current = spec
	}
	return sig
}

// ReEvaluate runs one adaptive decision cycle: build Signals, ask the
// policy, and — if it decides to switch — install the new model on the
// controller. Released pulls (a loosened condition may unblock buffered
// DPRs immediately) are returned for the caller to answer; switched
// reports whether a model change happened.
func (d *AdaptiveDriver) ReEvaluate(c *Controller, now float64) (released []Pull, switched bool) {
	spec, change := d.policy.Evaluate(d.Signals(c, now))
	if !change {
		return nil, false
	}
	m, err := spec.Build()
	if err != nil {
		// The policy only emits specs Build accepts; refuse to wedge the
		// shard on the impossible case.
		return nil, false
	}
	d.switches++
	return c.SetModel(m), true
}

// Current returns the live spec of the controller's model, for admin and
// debug surfaces.
func (d *AdaptiveDriver) Current(c *Controller) Spec {
	spec, _ := c.Spec()
	return spec
}

// Switches returns how many model switches this driver has performed.
func (d *AdaptiveDriver) Switches() int { return d.switches }
