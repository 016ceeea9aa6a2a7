package core

import (
	"context"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// TestRuntimeModelSwitch exercises the paper's runtime-flexibility claim
// end to end over the transport: a worker blocked under SSP is released
// the moment an admin switches the shard to ASP.
func TestRuntimeModelSwitch(t *testing.T) {
	net, srv, layout, assign := testServer(t, syncmodel.SSP(1), syncmodel.Lazy, 2)
	w0, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()

	// Worker 0 runs ahead and blocks on its second pull.
	if err := w0.SPush(tctx, 0, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	params := make([]float64, 5)
	if err := w0.SPull(tctx, 0, params); err != nil {
		t.Fatal(err)
	}
	if err := w0.SPush(tctx, 1, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- w0.SPull(tctx, 1, params) }()
	select {
	case <-blocked:
		t.Fatal("pull should be delayed under SSP(1)")
	case <-time.After(50 * time.Millisecond):
	}

	// Admin switches the shard to ASP at runtime.
	admin := net.Endpoint(transport.Worker(9))
	defer admin.Close()
	if err := SetCondition(tctx, admin, 0, syncmodel.Spec{Kind: syncmodel.KindASP}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked pull not released by the model switch")
	}
	if st := srv.Stats(); st.DPRs != 1 {
		t.Errorf("DPRs = %d, want exactly the one pre-switch delay", st.DPRs)
	}
	// Post-switch, the worker free-runs.
	for i := 2; i < 6; i++ {
		if err := w0.SPush(tctx, i, make([]float64, 5)); err != nil {
			t.Fatal(err)
		}
		if err := w0.SPull(tctx, i, params); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSetConditionValidation(t *testing.T) {
	net, _, _, _ := testServer(t, syncmodel.BSP(), syncmodel.Lazy, 1)
	admin := net.Endpoint(transport.Worker(8))
	defer admin.Close()
	if err := SetCondition(tctx, admin, 0, syncmodel.Spec{Kind: 99}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// SetCondition takes only its own server's ack to its own request: a
// stray stats response, a stale ack left by an earlier call, and another
// server's ack carrying the very seq the call will use, all queued ahead
// of the real ack, are skipped — and the real ack is consumed, not left
// behind for the next caller.
func TestSetConditionSkipsStrayAndStaleReplies(t *testing.T) {
	net, _, _, _ := testServer(t, syncmodel.SSP(1), syncmodel.Lazy, 1)
	admin := net.Endpoint(transport.Worker(7))
	defer admin.Close()
	injector := net.Endpoint(transport.Worker(8))
	defer injector.Close()

	next := adminSeq.Load() + 1
	strays := []*transport.Message{
		{Type: transport.MsgStatsResp, From: transport.Server(0), Seq: next,
			Vals: ShardState{VTrain: 777}.encode(nil)},
		{Type: transport.MsgSetCondAck, From: transport.Server(0), Seq: next - 1},
		{Type: transport.MsgSetCondAck, From: transport.Server(1), Seq: next},
	}
	for _, m := range strays {
		m.To = admin.ID()
		if err := injector.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := SetCondition(tctx, admin, 0, syncmodel.Spec{Kind: syncmodel.KindASP}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if msg, err := recvCtx(ctx, admin); err == nil {
		t.Fatalf("%s (seq %d from %s) left on the admin endpoint", msg.Type, msg.Seq, msg.From)
	}
	// The cancelled receive above keeps draining admin; query from the
	// injector instead.
	st, err := QueryStats(tctx, injector, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelKind != int(syncmodel.KindASP) {
		t.Fatalf("server runs model kind %d after set-cond, want ASP", st.ModelKind)
	}
}
