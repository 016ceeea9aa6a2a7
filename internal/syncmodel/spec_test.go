package syncmodel

import (
	"testing"
)

func TestSpecRoundTripAllPresets(t *testing.T) {
	models := []Model{
		BSP(), ASP(), SSP(3),
		PSSPConst(3, 0.5), PSSPDynamic(2, 0.8),
		DropStragglers(5),
		DSPS(DSPSConfig{Initial: 2, Min: 1, Max: 8}),
		Adaptive(AdaptiveConfig{InitialS: 3, MinS: 2, MaxS: 6}),
	}
	for _, m := range models {
		spec, ok := SpecOf(m)
		if !ok {
			t.Fatalf("%s has no spec", m.Name)
		}
		decoded, err := DecodeSpec(spec.Encode())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		rebuilt, err := decoded.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if rebuilt.Name != m.Name {
			t.Errorf("round trip %s → %s", m.Name, rebuilt.Name)
		}
	}
}

// TestSpecRoundTripIsLossless is the regression test for the wire-format
// bug where DSPS's [Min, Max] bounds were dropped by Encode: for every
// encodable spec, SpecOf → Encode → DecodeSpec → Build must reproduce the
// exact spec — bounds included — not just a same-kind approximation.
func TestSpecRoundTripIsLossless(t *testing.T) {
	specs := []Spec{
		{Kind: KindBSP},
		{Kind: KindASP},
		{Kind: KindSSP, S: 4},
		{Kind: KindPSSPConst, S: 3, C: 0.25},
		{Kind: KindPSSPDynamic, S: 2, C: 0.8},
		{Kind: KindDropStragglers, C: 5},
		{Kind: KindDSPS, S: 2, Min: 1, Max: 8},
		{Kind: KindDSPS, S: 3, Min: 3, Max: 3}, // pinned threshold
		{Kind: KindDSPS},                       // degenerate all-zero: legal, stays SSP(0)
		{Kind: KindAdaptive, S: 3, Min: 1, Max: 8},
	}
	for _, want := range specs {
		m, err := want.Build()
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		// SpecOf may materialize legacy defaults, but from there the loop
		// must be a fixed point.
		first, ok := SpecOf(m)
		if !ok {
			t.Fatalf("%+v: built model has no spec", want)
		}
		decoded, err := DecodeSpec(first.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if decoded != first {
			t.Errorf("lossy wire round trip: %+v → %+v", first, decoded)
		}
		rebuilt, err := decoded.Build()
		if err != nil {
			t.Fatalf("%+v: rebuild: %v", decoded, err)
		}
		second, _ := SpecOf(rebuilt)
		if second != first {
			t.Errorf("spec drifted across rebuild: %+v → %+v", first, second)
		}
		if rebuilt.Name != m.Name {
			t.Errorf("model name drifted: %s → %s", m.Name, rebuilt.Name)
		}
	}
}

// TestDSPSZeroInitialAligned: DSPS(Initial:0) was always legal locally;
// Spec.Build used to reject S<1 for the same configuration. The two
// validations must agree.
func TestDSPSZeroInitialAligned(t *testing.T) {
	m := DSPS(DSPSConfig{}) // legal locally: degenerate SSP(0) that can only grow to Max 0
	spec, ok := SpecOf(m)
	if !ok {
		t.Fatal("DSPS has no spec")
	}
	if _, err := spec.Build(); err != nil {
		t.Errorf("Build rejected the spec of a locally-legal DSPS: %v", err)
	}
	if _, err := (Spec{Kind: KindDSPS, S: 0, Min: 0, Max: 2}).Build(); err != nil {
		t.Errorf("Build rejected DSPS starting at 0 with explicit bounds: %v", err)
	}
}

func TestSpecOfClosuresIsFalse(t *testing.T) {
	if _, ok := SpecOf(CustomModel("x", nil, nil)); ok {
		t.Error("custom model should have no spec")
	}
	if _, ok := SpecOf(PSSPDynamicFunc(2, func(State, int) float64 { return 1 })); ok {
		t.Error("closure alpha model should have no spec")
	}
}

func TestSpecBuildValidation(t *testing.T) {
	bad := []Spec{
		{Kind: 0},
		{Kind: 99},
		{Kind: KindSSP, S: -1},
		{Kind: KindPSSPConst, S: 1, C: 2},
		{Kind: KindPSSPDynamic, S: 1, C: -0.5},
		{Kind: KindDropStragglers, C: 0},
		{Kind: KindDSPS, S: 1, Min: 2, Max: 8},   // Initial below Min
		{Kind: KindDSPS, S: 5, Min: 1, Max: 4},   // Initial above Max
		{Kind: KindDSPS, S: 2, Min: -1, Max: 8},  // negative Min
		{Kind: KindAdaptive, S: 9, Min: 1, Max: 4}, // InitialS above MaxS
	}
	for i, sp := range bad {
		if _, err := sp.Build(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestDecodeSpecValidation(t *testing.T) {
	if _, err := DecodeSpec([]float64{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
	// The pre-bounds three-value form is no longer a valid frame.
	if _, err := DecodeSpec([]float64{float64(KindDSPS), 2, 0}); err == nil {
		t.Error("three-value payload accepted")
	}
}

func TestSetModelPreservesStateAndReleases(t *testing.T) {
	// Run SSP until a worker is blocked, switch to ASP: the blocked pull
	// must be released immediately and V_train must survive the swap.
	c := New(2, SSP(1), Lazy, nil)
	push(t, c, 0, 0)
	if !c.OnPull(0, 0, nil) {
		t.Fatal("first pull should pass")
	}
	push(t, c, 0, 1)
	if c.OnPull(0, 1, "blocked") {
		t.Fatal("second pull should block under SSP(1)")
	}
	vtrainBefore := c.VTrain()
	released := c.SetModel(ASP())
	if len(released) != 1 || released[0].Token != "blocked" {
		t.Fatalf("SetModel released %v, want the blocked pull", released)
	}
	if c.VTrain() != vtrainBefore {
		t.Errorf("V_train changed across SetModel: %d → %d", vtrainBefore, c.VTrain())
	}
	// From now on nothing blocks.
	for i := 2; i < 10; i++ {
		push(t, c, 0, i)
		if !c.OnPull(0, i, nil) {
			t.Fatalf("ASP blocked at iteration %d after switch", i)
		}
	}
}

func TestSetModelLoosenedPushConditionAdvances(t *testing.T) {
	// BSP round is open with 1 of 2 pushes; switching to a 1-quorum
	// drop-stragglers model must close it immediately.
	c := New(2, BSP(), Lazy, nil)
	push(t, c, 0, 0)
	if c.VTrain() != 0 {
		t.Fatal("round should still be open")
	}
	c.SetModel(DropStragglers(1))
	if c.VTrain() != 1 {
		t.Errorf("V_train = %d after loosening push condition, want 1", c.VTrain())
	}
}

func TestSetModelTightening(t *testing.T) {
	// ASP → BSP mid-run: subsequent pulls must start blocking.
	c := New(2, ASP(), Lazy, nil)
	push(t, c, 0, 0)
	if !c.OnPull(0, 0, nil) {
		t.Fatal("ASP should pass")
	}
	if rel := c.SetModel(BSP()); len(rel) != 0 {
		t.Fatalf("tightening released %v", rel)
	}
	push(t, c, 0, 1)
	if c.OnPull(0, 1, nil) {
		t.Error("BSP should now block the fast worker")
	}
}
