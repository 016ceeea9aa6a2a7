package core

import (
	"context"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

func TestQueryStatsReflectsLiveState(t *testing.T) {
	net, _, layout, assign := testServer(t, syncmodel.SSP(1), syncmodel.Lazy, 2)
	w0, _ := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	defer w0.Close()
	admin := net.Endpoint(transport.Worker(7))
	defer admin.Close()

	st, err := QueryStats(context.Background(), admin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.VTrain != 0 || st.Pushes != 0 || st.MinProgress != -1 {
		t.Fatalf("fresh state %+v", st)
	}
	if st.Keys == 0 {
		t.Error("server reports no keys")
	}

	// One push + one passing pull, then a blocked pull.
	if err := w0.SPush(tctx, 0, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w0.SPull(tctx, 0, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	if err := w0.SPush(tctx, 1, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	go w0.SPull(tctx, 1, make([]float64, 5)) // blocks under SSP(1)

	waitUntil(t, 5*time.Second, "blocked pull to appear in the stats", func() bool {
		st, err = QueryStats(context.Background(), admin, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st.Buffered == 1
	})
	if st.Buffered != 1 || st.DPRs != 1 {
		t.Fatalf("state after block %+v", st)
	}
	if st.MaxProgress != 1 || st.Pushes != 2 || st.Pulls != 2 {
		t.Fatalf("progress state %+v", st)
	}
	if st.CountAtRound != 1 {
		t.Fatalf("CountAtRound = %d, want 1 (only worker 0 pushed round 0)", st.CountAtRound)
	}
}

// QueryStats takes only its own server's answer to its own query: a
// stray answer from another server (carrying the very seq the query
// will use) and a stale answer from the right server to an earlier
// query, both queued ahead of the real one, are skipped.
func TestQueryStatsSkipsStrayAndStaleResponses(t *testing.T) {
	net, _, _, _ := testServer(t, syncmodel.ASP(), syncmodel.Lazy, 1)
	admin := net.Endpoint(transport.Worker(7))
	defer admin.Close()
	injector := net.Endpoint(transport.Worker(8))
	defer injector.Close()

	next := statsSeq.Load() + 1
	strays := []*transport.Message{
		{From: transport.Server(1), Seq: next},
		{From: transport.Server(0), Seq: next - 1},
	}
	for _, m := range strays {
		m.Type, m.To = transport.MsgStatsResp, admin.ID()
		m.Vals = ShardState{VTrain: 777, Keys: 999}.encode(nil)
		if err := injector.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	st, err := QueryStats(tctx, admin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.VTrain != 0 || st.Keys != 2 {
		t.Fatalf("QueryStats returned %+v, want the live server's state (VTrain 0, 2 keys)", st)
	}
}

func TestDecodeShardStateValidation(t *testing.T) {
	if _, err := decodeShardState([]float64{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
}
