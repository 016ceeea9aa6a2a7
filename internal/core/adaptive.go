package core

import (
	"time"

	"github.com/fluentps/fluentps/internal/syncmodel"
)

// Server-side wiring of the runtime-adaptive sync controller
// (syncmodel/adaptive.go). The apply loop owns the driver exactly like it
// owns the controller: ObservePush feeds per-worker forecasts on the push
// path, and a periodic tick in runSerial/runBatched calls reevaluate
// between messages (batched: between waves), so model switches always see
// a quiescent shard.

// adaptEvery resolves the re-evaluation period.
func (s *Server) adaptEvery() time.Duration {
	if s.cfg.AdaptEvery > 0 {
		return s.cfg.AdaptEvery
	}
	return DefaultAdaptEvery
}

// now is the monotonic second clock the adaptive forecasts run on.
func (s *Server) now() float64 { return time.Since(s.started).Seconds() }

// installAdaptive (re)starts the adaptive loop for the given adaptive
// model spec. The staleness bounds come from the spec; the policy knobs
// from the server config.
func (s *Server) installAdaptive(spec syncmodel.Spec) {
	acfg := s.cfg.Adaptive
	acfg.InitialS, acfg.MinS, acfg.MaxS = spec.S, spec.Min, spec.Max
	s.adapt = syncmodel.NewAdaptiveDriver(s.cfg.NumWorkers, acfg)
}

// reevaluate runs one adaptive decision cycle on the apply goroutine. A
// switch may loosen conditions and release buffered DPRs, which are
// answered exactly as a push-released pull would be.
func (s *Server) reevaluate() error {
	if s.adapt == nil {
		return nil
	}
	released, switched := s.adapt.ReEvaluate(s.ctrl, s.now())
	if switched {
		s.switches++
		s.metrics.syncSwitches.Inc()
	}
	if err := s.releasePulls(released); err != nil {
		return err
	}
	if switched || len(released) > 0 {
		s.snapshotStats()
	}
	return nil
}

// stalenessOf maps a live spec to the server.sync_staleness gauge value:
// the effective staleness bound of the current model, with −1 meaning
// unbounded (ASP) — so dashboards can tell "s tuned to 0" from "no bound".
func stalenessOf(spec syncmodel.Spec) int {
	switch spec.Kind {
	case syncmodel.KindASP:
		return -1
	default:
		return spec.S
	}
}
