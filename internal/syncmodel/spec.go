package syncmodel

import "fmt"

// Kind enumerates the wire-encodable synchronization model presets, so a
// running server can be switched to a different model by a control
// message (the paper's runtime flexibility claim: models are just
// conditions, so swapping them is a configuration change, not a restart).
type Kind uint8

// Wire-encodable model kinds.
const (
	KindBSP Kind = iota + 1
	KindASP
	KindSSP
	KindPSSPConst
	KindPSSPDynamic
	KindDropStragglers
	KindDSPS
	KindAdaptive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBSP:
		return "BSP"
	case KindASP:
		return "ASP"
	case KindSSP:
		return "SSP"
	case KindPSSPConst:
		return "PSSP"
	case KindPSSPDynamic:
		return "PSSP-dyn"
	case KindDropStragglers:
		return "Drop"
	case KindDSPS:
		return "DSPS"
	case KindAdaptive:
		return "Adaptive"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Spec is a serializable description of a synchronization model preset.
type Spec struct {
	Kind Kind
	// S is the staleness threshold (SSP/PSSP; DSPS/Adaptive current).
	S int
	// C is the PSSP probability / dynamic α; for DropStragglers it is the
	// quorum Nt (as a count).
	C float64
	// Min and Max bound the staleness threshold of self-tuning models
	// (DSPS, Adaptive). Both zero means "unbounded/not applicable"; Build
	// derives DSPS's historical default range in that case.
	Min, Max int
}

// SpecOf returns the model's wire spec, or ok=false for models that carry
// closures a spec cannot express (CustomModel, PSSPDynamicFunc). For
// self-tuning models (DSPS, Adaptive) the spec reports the *live* adapted
// threshold of this model instance, not the configured initial one, so
// admin and debug output show the running configuration.
func SpecOf(m Model) (Spec, bool) {
	if m.liveSpec != nil {
		return m.liveSpec(), true
	}
	if m.spec.Kind == 0 {
		return Spec{}, false
	}
	return m.spec, true
}

// Spec returns the wire spec of the controller's current model (live
// parameters for self-tuning models), or ok=false for closure models.
func (c *Controller) Spec() (Spec, bool) { return SpecOf(c.model) }

// dspsBounds resolves the spec's staleness range exactly as DSPS's
// constructor validates it. A spec with both bounds zero and a positive S
// is a hand-built spec: it gets the default range [1, 4S].
func (s Spec) dspsBounds() (DSPSConfig, error) {
	cfg := DSPSConfig{Initial: s.S, Min: s.Min, Max: s.Max}
	if s.Min == 0 && s.Max == 0 && s.S > 0 {
		cfg.Min, cfg.Max = 1, 4*s.S
	}
	if cfg.Min < 0 || cfg.Initial < cfg.Min || cfg.Max < cfg.Initial {
		return DSPSConfig{}, fmt.Errorf("syncmodel: invalid DSPS spec s=%d bounds=[%d,%d] (need 0 ≤ Min ≤ s ≤ Max)",
			s.S, s.Min, s.Max)
	}
	return cfg, nil
}

// Build materializes the spec into a Model. The validation matches the
// constructors exactly: any spec a constructor accepts (including the
// degenerate DSPS with Initial = Min = Max = 0) round-trips through
// SpecOf → Encode → DecodeSpec → Build unchanged.
func (s Spec) Build() (Model, error) {
	switch s.Kind {
	case KindBSP:
		return BSP(), nil
	case KindASP:
		return ASP(), nil
	case KindSSP:
		if s.S < 0 {
			return Model{}, fmt.Errorf("syncmodel: invalid SSP staleness %d", s.S)
		}
		return SSP(s.S), nil
	case KindPSSPConst:
		if s.S < 0 || s.C < 0 || s.C > 1 {
			return Model{}, fmt.Errorf("syncmodel: invalid PSSP spec s=%d c=%v", s.S, s.C)
		}
		return PSSPConst(s.S, s.C), nil
	case KindPSSPDynamic:
		if s.S < 0 || s.C < 0 || s.C > 1 {
			return Model{}, fmt.Errorf("syncmodel: invalid dynamic PSSP spec s=%d α=%v", s.S, s.C)
		}
		return PSSPDynamic(s.S, s.C), nil
	case KindDropStragglers:
		if s.C < 1 {
			return Model{}, fmt.Errorf("syncmodel: invalid drop-stragglers quorum %v", s.C)
		}
		return DropStragglers(int(s.C)), nil
	case KindDSPS:
		cfg, err := s.dspsBounds()
		if err != nil {
			return Model{}, err
		}
		return DSPS(cfg), nil
	case KindAdaptive:
		cfg := AdaptiveConfig{InitialS: s.S, MinS: s.Min, MaxS: s.Max}
		if err := cfg.validate(); err != nil {
			return Model{}, err
		}
		return Adaptive(cfg), nil
	default:
		return Model{}, fmt.Errorf("syncmodel: unknown model kind %d", s.Kind)
	}
}

// specPayloadLen is the wire payload length of an encoded Spec.
const specPayloadLen = 5

// Encode packs the spec into float64s for transport payloads:
// [kind, s, c, min, max].
func (s Spec) Encode() []float64 {
	return []float64{float64(s.Kind), float64(s.S), s.C, float64(s.Min), float64(s.Max)}
}

// DecodeSpec unpacks a payload written by Encode.
func DecodeSpec(vals []float64) (Spec, error) {
	if len(vals) != specPayloadLen {
		return Spec{}, fmt.Errorf("syncmodel: spec payload has %d values, want %d", len(vals), specPayloadLen)
	}
	return Spec{
		Kind: Kind(vals[0]), S: int(vals[1]), C: vals[2],
		Min: int(vals[3]), Max: int(vals[4]),
	}, nil
}

// SetModel swaps the controller's synchronization model at runtime. All
// accumulated state — V_train, per-round counts, buffered DPRs, worker
// progress — is preserved; only the conditions change. The new conditions
// take effect from the next pull/push; an immediate drain attempt runs so
// that a loosened pull condition releases currently buffered DPRs
// without waiting for the next push (e.g. switching SSP→ASP must unblock
// everyone).
func (c *Controller) SetModel(m Model) (released []Pull) {
	c.model = m.Instantiate()
	// Re-check buffered pulls against the new pull condition. A release
	// here is an immediate answer, so it is gap-accounted like OnPull's
	// ready path.
	for _, idx := range c.bufferRounds() {
		pulls := c.buffer[idx]
		kept := pulls[:0]
		for _, p := range pulls {
			if c.model.Pull(c, p.Worker, p.Progress) {
				c.answerGap[p.Progress-c.vtrain]++
				released = append(released, p)
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(c.buffer, idx)
		} else {
			c.buffer[idx] = kept
		}
	}
	// A loosened push condition may also close the current round; the
	// shared advance step retires round counters and gap-accounts drained
	// DPRs exactly as a push-triggered advance would.
	for c.model.Push(c) {
		released = append(released, c.advanceRound()...)
	}
	return released
}
