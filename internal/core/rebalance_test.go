package core

import (
	"bytes"
	"testing"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// EPS rebalancing on membership changes, driven as view transitions
// (clusterview.View.WithDrained / WithJoined sent with DistributeView)
// against a quiesced cluster whose parameters are non-uniform: key k's
// segment starts filled with k+1, so a key absorbed into the wrong
// segment, or a value lost or zeroed in transit, shows up on read-back.

// patternInit fills key k's segment with k+1.
func patternInit(k keyrange.Key, seg []float64) {
	for i := range seg {
		seg[i] = float64(k + 1)
	}
}

// startPatternServer runs server rank on view over net with the k+1
// pattern (an empty joiner's pattern is moot: it owns no keys).
func startPatternServer(t *testing.T, net *transport.ChanNetwork, layout *keyrange.Layout, rank, workers int, view *clusterview.View) {
	t.Helper()
	srv, err := NewServer(net.Endpoint(transport.Server(rank)), ServerConfig{
		Rank: rank, NumWorkers: workers, Layout: layout, View: view,
		Model: syncmodel.ASP(), Drain: syncmodel.Lazy, Init: patternInit,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	t.Cleanup(func() {
		ep := net.Endpoint(transport.Worker(90 + rank))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(rank)})
		ep.Close()
	})
}

// startPatternCluster boots one server per view slot and a view-aware
// worker 0, which acks the admin's transitions and reads the model back.
func startPatternCluster(t *testing.T, layout *keyrange.Layout, view *clusterview.View) (*transport.ChanNetwork, *Worker, transport.Endpoint) {
	t.Helper()
	net := transport.NewChanNetwork(256)
	for m := range view.Servers {
		startPatternServer(t, net, layout, m, 1, view)
	}
	w, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, View: view})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	admin := net.Endpoint(transport.Worker(50))
	t.Cleanup(func() { admin.Close() })
	return net, w, admin
}

// pullAll fetches the full model through w at the given round.
func pullAll(t *testing.T, w *Worker, layout *keyrange.Layout, round int) []float64 {
	t.Helper()
	params := make([]float64, layout.TotalDim())
	if err := w.SPull(tctx, round, params); err != nil {
		t.Fatal(err)
	}
	return params
}

// expectPattern checks every key reads back as k+1+shift.
func expectPattern(t *testing.T, layout *keyrange.Layout, params []float64, shift float64) {
	t.Helper()
	for k := 0; k < layout.NumKeys(); k++ {
		seg := layout.Slice(params, keyrange.Key(k))
		for i, v := range seg {
			if want := float64(k+1) + shift; v != want {
				t.Fatalf("key %d scalar %d = %v, want %v (data lost or misplaced in migration)", k, i, v, want)
			}
		}
	}
}

// expectKeys checks each server's live key count against assign.
func expectKeys(t *testing.T, admin transport.Endpoint, assign *keyrange.Assignment, servers int) {
	t.Helper()
	for m := 0; m < servers; m++ {
		st, err := QueryStats(tctx, admin, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(assign.KeysOf(m)); st.Keys != want {
			t.Errorf("server %d holds %d keys, the view assigns it %d", m, st.Keys, want)
		}
	}
}

func TestRebalanceDecommissionPreservesData(t *testing.T) {
	layout := keyrange.MustLayout([]int{4, 6, 2, 8, 5})
	old, err := keyrange.EPS(layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	view := clusterview.Bootstrap("", make([]string, 3), make([]string, 1), old, 1)
	_, w, admin := startPatternCluster(t, layout, view)

	// Decommission server 1: its keys migrate to servers 0 and 2. The
	// drained rank installs the view too, to stream its keys out.
	next, err := view.WithDrained(1, layout)
	if err != nil {
		t.Fatal(err)
	}
	if keyrange.Moved(old, next.Assignment) == 0 {
		t.Fatal("drain moved nothing; test is vacuous")
	}
	if err := DistributeView(tctx, admin, next, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	// Nothing may remain on the decommissioned server.
	if keys := next.Assignment.KeysOf(1); len(keys) != 0 {
		t.Fatalf("server 1 still owns %v", keys)
	}
	expectKeys(t, admin, next.Assignment, 3)
	// The full model, read under the new assignment, is intact.
	expectPattern(t, layout, pullAll(t, w, layout, 0), 0)
}

func TestRebalanceScaleUpPreservesData(t *testing.T) {
	layout := keyrange.MustLayout([]int{4, 6, 2, 8, 5, 3, 7})
	old, err := keyrange.EPS(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	view := clusterview.Bootstrap("", make([]string, 2), make([]string, 1), old, 1)
	net, w, admin := startPatternCluster(t, layout, view)

	// Grow 2 → 4 servers, one join at a time. Each joiner boots empty,
	// as fluentps-server -joining does: a bootstrap view listing its
	// slot, with an assignment that gives it nothing yet.
	cur := view
	for rank := 2; rank < 4; rank++ {
		boot := clusterview.Bootstrap("", make([]string, rank+1), make([]string, 1), old, 1)
		startPatternServer(t, net, layout, rank, 1, boot)
		next, got, err := cur.WithJoined("", layout)
		if err != nil {
			t.Fatal(err)
		}
		if got != rank {
			t.Fatalf("join assigned rank %d, want %d", got, rank)
		}
		if err := DistributeView(tctx, admin, next, nil); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if keyrange.Moved(old, cur.Assignment) == 0 {
		t.Fatal("scale-up moved nothing; test is vacuous")
	}
	for m, ld := range cur.Assignment.Loads(layout) {
		if ld == 0 {
			t.Errorf("server %d has no load after scale-up", m)
		}
	}
	expectKeys(t, admin, cur.Assignment, 4)
	expectPattern(t, layout, pullAll(t, w, layout, 0), 0)
}

func TestRebalanceTrainingContinuesAfterwards(t *testing.T) {
	layout := keyrange.MustLayout([]int{3, 3, 3})
	old, err := keyrange.EPS(layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	view := clusterview.Bootstrap("", make([]string, 3), make([]string, 1), old, 1)
	_, w, admin := startPatternCluster(t, layout, view)

	// Train a little before the change.
	delta := make([]float64, layout.TotalDim())
	for i := range delta {
		delta[i] = 1
	}
	if err := w.SPush(tctx, 0, delta); err != nil {
		t.Fatal(err)
	}
	pullAll(t, w, layout, 0)

	// Drain server 2 at a quiet point, then keep training: the worker
	// adopts the new assignment at its next operation.
	next, err := view.WithDrained(2, layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := DistributeView(tctx, admin, next, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.SPush(tctx, 1, delta); err != nil {
		t.Fatal(err)
	}
	// Initial pattern + two pushed deltas (N=1 so scale 1 each).
	expectPattern(t, layout, pullAll(t, w, layout, 1), 2)
	expectKeys(t, admin, next.Assignment, 3)
}

// A transition computed over a different key space than the cluster's is
// refused before anything is sent.
func TestRebalanceValidation(t *testing.T) {
	layoutA := keyrange.MustLayout([]int{1, 2})
	layoutB := keyrange.MustLayout([]int{1, 2, 3})
	a, _ := keyrange.EPS(layoutA, 2)
	view := clusterview.Bootstrap("", make([]string, 2), make([]string, 1), a, 1)
	if _, _, err := view.WithJoined("", layoutB); err == nil {
		t.Error("join over a mismatched key space accepted")
	}
	if _, err := view.WithDrained(0, layoutB); err == nil {
		t.Error("drain over a mismatched key space accepted")
	}
}

// An unstamped (epoch-0) key transfer belongs to no view: the server
// ignores it — even one carrying a well-formed stream for a key it does
// not own — and keeps serving its own keys unchanged.
func TestUnstampedMigrateIgnored(t *testing.T) {
	layout := keyrange.MustLayout([]int{4, 6, 2, 8})
	assign, err := keyrange.EPS(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	view := clusterview.Bootstrap("", make([]string, 2), make([]string, 1), assign, 1)
	_, w, admin := startPatternCluster(t, layout, view)

	foreign := assign.KeysOf(1)[:1]
	donor := kvstore.NewShard(layout, foreign, func(k keyrange.Key, seg []float64) {
		for i := range seg {
			seg[i] = -99
		}
	})
	var buf bytes.Buffer
	if err := donor.SaveKeys(&buf, foreign); err != nil {
		t.Fatal(err)
	}
	mig := &transport.Message{
		Type: transport.MsgMigrate, To: transport.Server(0), Seq: 1,
		Keys: foreign, Vals: transport.PackBytes(nil, buf.Bytes()),
	}
	if err := admin.Send(mig); err != nil {
		t.Fatal(err)
	}
	// The stats query queues behind the transfer, so its answer shows the
	// state after the server handled it.
	expectKeys(t, admin, assign, 2)
	expectPattern(t, layout, pullAll(t, w, layout, 0), 0)
}
