package core

import (
	"context"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// adaptiveTestServer is testServer with a telemetry registry and adaptive
// knobs exposed.
func adaptiveTestServer(t *testing.T, model syncmodel.Model, workers int, adaptEvery time.Duration) (*transport.ChanNetwork, *Server, *telemetry.Registry, *keyrange.Layout, *keyrange.Assignment) {
	t.Helper()
	layout := keyrange.MustLayout([]int{2, 3})
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	net := transport.NewChanNetwork(64)
	srv, err := NewServer(net.Endpoint(transport.Server(0)), ServerConfig{
		Rank:       0,
		NumWorkers: workers,
		Layout:     layout,
		Assignment: assign,
		Model:      model,
		Drain:      syncmodel.Lazy,
		AdaptEvery: adaptEvery,
		Init:       func(k keyrange.Key, seg []float64) {},
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	t.Cleanup(func() {
		ep := net.Endpoint(transport.Worker(99))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)})
		ep.Close()
	})
	return net, srv, reg, layout, assign
}

// TestModelSwitchTelemetry: an admin set-cond that changes the model kind
// must bump server.sync_model_switches, retarget server.sync_staleness,
// and surface both through QueryStats — the live spec, not the boot spec.
func TestModelSwitchTelemetry(t *testing.T) {
	net, _, reg, _, _ := adaptiveTestServer(t, syncmodel.SSP(2), 2, 0)
	admin := net.Endpoint(transport.Worker(9))
	defer admin.Close()

	st, err := QueryStats(context.Background(), admin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Switches != 0 || st.Model() != "SSP(s=2)" {
		t.Fatalf("boot state: switches=%d model=%s", st.Switches, st.Model())
	}

	if err := SetCondition(tctx, admin, 0, syncmodel.Spec{Kind: syncmodel.KindASP}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "switch counter to tick", func() bool {
		return reg.Snapshot().CounterOr("server.sync_model_switches", 0) == 1
	})
	st, err = QueryStats(context.Background(), admin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Switches != 1 || st.Model() != "ASP" {
		t.Errorf("after switch: switches=%d model=%s", st.Switches, st.Model())
	}
	// The staleness gauge reports −1 for the unbounded model. The gauge is
	// refreshed by snapshotStats on the message paths, so query once more.
	if g := reg.Snapshot().GaugeOr("server.sync_staleness", 99); g != -1 {
		t.Errorf("sync_staleness gauge = %d under ASP, want -1", g)
	}

	// Same-kind set-cond is not a switch.
	if err := SetCondition(tctx, admin, 0, syncmodel.Spec{Kind: syncmodel.KindASP}); err != nil {
		t.Fatal(err)
	}
	if _, err := QueryStats(context.Background(), admin, 0); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().CounterOr("server.sync_model_switches", 0); n != 1 {
		t.Errorf("same-kind set-cond counted as switch: counter = %d", n)
	}
}

// TestQueryStatsReportsLiveDSPSThreshold is the regression test for the
// "SpecOf on a running DSPS reports the initial threshold" bug: after the
// model's Adjust hook grows s at runtime, the stats must show the live
// value, and the wire format must carry the bounds.
func TestQueryStatsReportsLiveDSPSThreshold(t *testing.T) {
	net, srv, _, _, _ := adaptiveTestServer(t, syncmodel.DSPS(syncmodel.DSPSConfig{Initial: 1, Min: 1, Max: 4}), 1, 0)
	w0, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: srv.cfg.Layout, Assignment: srv.cfg.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	admin := net.Endpoint(transport.Worker(9))
	defer admin.Close()

	// Run the single worker ahead: each round closes on its push, and a
	// blocked pull (progress == vtrain+s) marks stragglers as persistent,
	// so DSPS's Adjust grows s above its initial 1.
	delta := make([]float64, 5)
	params := make([]float64, 5)
	for i := 0; i < 6; i++ {
		if err := w0.SPush(tctx, i, delta); err != nil {
			t.Fatal(err)
		}
		if err := w0.SPull(tctx, i, params); err != nil {
			t.Fatal(err)
		}
	}
	st, err := QueryStats(context.Background(), admin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelKind != int(syncmodel.KindDSPS) || st.ModelMin != 1 || st.ModelMax != 4 {
		t.Fatalf("stats lost the DSPS bounds: %+v", st)
	}
	if st.ModelS == 0 {
		t.Errorf("stats report S=0; the live threshold should never be surfaced as zero here")
	}
}

// TestAdaptiveServerSwitchesAtRuntime: a server booted with -sync=adaptive
// and a fast tick must, once its lone worker's forecasts arrive, decide the
// cluster is homogeneous and switch itself to BSP — counting the switch.
func TestAdaptiveServerSwitchesAtRuntime(t *testing.T) {
	net, srv, reg, layout, assign := adaptiveTestServer(t,
		syncmodel.Adaptive(syncmodel.AdaptiveConfig{}), 1, 2*time.Millisecond)
	w0, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	admin := net.Endpoint(transport.Worker(9))
	defer admin.Close()

	delta := make([]float64, 5)
	params := make([]float64, 5)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if err := w0.SPush(tctx, i, delta); err != nil {
			t.Fatal(err)
		}
		if err := w0.SPull(tctx, i, params); err != nil {
			t.Fatal(err)
		}
		if reg.Snapshot().CounterOr("server.sync_model_switches", 0) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("adaptive tick never switched a homogeneous 1-worker shard to BSP")
		}
	}
	st, err := QueryStats(context.Background(), admin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelKind != int(syncmodel.KindBSP) {
		t.Errorf("adaptive shard runs %s, want BSP for a homogeneous cluster", st.Model())
	}
	if st.Switches < 1 {
		t.Errorf("stats report %d switches", st.Switches)
	}
	if srv.Stats().DPRs < 0 {
		t.Error("unreachable; keeps srv referenced")
	}
}

// TestShardStateRoundTrip: the stats payload round-trips every field,
// and payloads of any other length — the retired 11- and 17-value
// layouts included — are rejected.
func TestShardStateRoundTrip(t *testing.T) {
	want := ShardState{
		Keys: 5, VTrain: 3, MinProgress: 1, MaxProgress: 4, CountAtRound: 2,
		Buffered: 1, Pulls: 10, Pushes: 9, DPRs: 2, Dropped: 1, DedupHits: 1,
		ModelKind: int(syncmodel.KindDSPS), ModelS: 2, ModelMin: 1, ModelMax: 8,
		ModelC: 0, Switches: 3, SnapshotEpoch: 7, ROPulls: 40,
	}
	enc := want.encode(nil)
	got, err := decodeShardState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip %+v → %+v", want, got)
	}
	for _, n := range []int{11, 17} {
		if _, err := decodeShardState(enc[:n]); err == nil {
			t.Errorf("%d-value payload accepted", n)
		}
	}
}
