package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// elasticHarness is the shared scaffolding of the live-join and drain
// tests: an in-process cluster over a reliable transport, workers
// training in the background, and the exact-sum audit proving no update
// was lost or double-applied across the membership change.
type elasticHarness struct {
	t       *testing.T
	net     *transport.ChanNetwork
	layout  *keyrange.Layout
	srvErrs map[int]chan error
	ws      []*Worker
	wErrs   chan error
	admin   transport.Endpoint
	workers int
	iters   int
	before  int
}

func (h *elasticHarness) startServer(rank, numWorkers int, view *clusterview.View) {
	h.t.Helper()
	srv, err := NewServer(h.net.Endpoint(transport.Server(rank)), ServerConfig{
		Rank: rank, NumWorkers: numWorkers, Layout: h.layout,
		Model: syncmodel.SSP(2), Drain: syncmodel.Lazy,
		Seed: int64(rank), View: view,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	errc := make(chan error, 1)
	h.srvErrs[rank] = errc
	go func() { errc <- srv.Run() }()
}

func (h *elasticHarness) startWorkers(view *clusterview.View) {
	h.t.Helper()
	h.ws = make([]*Worker, h.workers)
	h.wErrs = make(chan error, h.workers)
	for n := 0; n < h.workers; n++ {
		w, err := NewWorker(h.net.Endpoint(transport.Worker(n)), WorkerConfig{
			Rank: n, Layout: h.layout, View: view,
			Timeout: 8 * time.Second,
		})
		if err != nil {
			h.t.Fatal(err)
		}
		h.ws[n] = w
		go func(n int, w *Worker) {
			h.wErrs <- func() error {
				delta := make([]float64, h.layout.TotalDim())
				params := make([]float64, h.layout.TotalDim())
				for i := range delta {
					delta[i] = 0.01
				}
				for i := 0; i < h.iters; i++ {
					if err := w.SPush(tctx, i, delta); err != nil {
						return fmt.Errorf("worker %d push %d: %w", n, i, err)
					}
					if i < h.iters-1 {
						if err := w.SPull(tctx, i, params); err != nil {
							return fmt.Errorf("worker %d pull %d: %w", n, i, err)
						}
					}
				}
				return nil
			}()
		}(n, h.ws[n])
	}
}

// auditExactSum pulls the final model and checks every dimension equals
// the sequential sum of all pushed updates — the arithmetic proof that
// the membership change neither lost nor double-applied an update.
func (h *elasticHarness) auditExactSum(ctx context.Context) {
	h.t.Helper()
	params := make([]float64, h.layout.TotalDim())
	if err := h.ws[0].SPull(ctx, h.iters-1, params); err != nil {
		h.t.Fatal(err)
	}
	scale := 1 / float64(h.workers)
	want := 0.0
	for j := 0; j < h.workers*h.iters; j++ {
		want += 0.01 * scale
	}
	for i, got := range params {
		if math.Abs(got-want) > 1e-9 {
			h.t.Fatalf("dim %d = %v, want %v: an update was lost or double-applied across the membership change", i, got, want)
		}
	}
}

func (h *elasticHarness) shutdown(ranks ...int) {
	h.t.Helper()
	for _, m := range ranks {
		if err := h.admin.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)}); err != nil {
			h.t.Fatal(err)
		}
		if err := <-h.srvErrs[m]; err != nil {
			h.t.Fatalf("server %d exited with %v", m, err)
		}
	}
	for _, w := range h.ws {
		if n := w.Outstanding(); n != 0 {
			h.t.Errorf("worker %d still has %d in-flight requests", w.Rank(), n)
		}
		w.Close()
	}
	h.admin.Close()
	waitUntil(h.t, 5*time.Second, "cluster goroutines to wind down", func() bool {
		return runtime.NumGoroutine() <= h.before+3
	})
}

// TestLiveJoinServesDuringTransfer grows a 2-server cluster to 3 while
// workers train: the joiner starts empty (the -joining server flow),
// fluentps-admin's view transition streams a third of the keys to it, and
// training never stops — proven by the workers completing, the exact-sum
// audit, and the joiner answering with a live V_train clock (adopted from
// its donors) rather than a blank one.
func TestLiveJoinServesDuringTransfer(t *testing.T) {
	const (
		workers = 2
		iters   = 60
	)
	layout := keyrange.MustLayout([]int{2, 3, 2, 3, 2, 3})
	assign, err := keyrange.EPS(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := &elasticHarness{
		t: t, net: transport.NewChanNetwork(4096), layout: layout,
		srvErrs: make(map[int]chan error), workers: workers, iters: iters,
		before: runtime.NumGoroutine(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Established cluster: two servers and the workers, all on epoch 1.
	viewOld := clusterview.Bootstrap("", make([]string, 2), make([]string, workers), assign, 1)
	h.startServer(0, workers, viewOld)
	h.startServer(1, workers, viewOld)
	h.startWorkers(viewOld)
	h.admin = h.net.Endpoint(transport.Worker(50))

	// The joiner boots empty with rank 2, exactly as fluentps-server
	// -joining does: a bootstrap view listing itself, but an assignment
	// that gives it nothing until the admin's transition.
	viewJoin := clusterview.Bootstrap("", make([]string, 3), make([]string, workers), assign, 1)
	h.startServer(2, workers, viewJoin)

	// Let training run, then grow the view mid-flight.
	waitUntil(t, 10*time.Second, "training to reach steady state", func() bool {
		st, err := QueryStats(ctx, h.admin, 0)
		return err == nil && st.Pushes >= 10
	})
	next, rank, err := viewOld.WithJoined("", layout)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 2 {
		t.Fatalf("join assigned rank %d, want 2", rank)
	}
	if err := DistributeView(ctx, h.admin, next, nil); err != nil {
		for m, errc := range h.srvErrs {
			select {
			case serr := <-errc:
				t.Logf("server %d already exited: %v", m, serr)
			default:
			}
		}
		t.Fatal(err)
	}

	// The transition is complete: the joiner holds a move-minimal share
	// of the keys and serves with a live clock.
	var keys [3]int
	total := 0
	for m := 0; m < 3; m++ {
		st, err := QueryStats(ctx, h.admin, m)
		if err != nil {
			t.Fatal(err)
		}
		keys[m] = st.Keys
		total += st.Keys
		if m == 2 {
			if st.Keys == 0 {
				t.Error("joiner received no keys")
			}
			if st.VTrain == 0 {
				t.Error("joiner serves with V_train 0; it must adopt its donors' clock")
			}
		}
	}
	if total != layout.NumKeys() {
		t.Errorf("keys split %v covers %d of %d keys", keys, total, layout.NumKeys())
	}
	if keys[2] > layout.NumKeys()/2 {
		t.Errorf("joiner took %d of %d keys; a move-minimal scale-up moves about a third", keys[2], layout.NumKeys())
	}

	for n := 0; n < workers; n++ {
		if err := <-h.wErrs; err != nil {
			for m := 0; m < 3; m++ {
				if st, serr := QueryStats(ctx, h.admin, m); serr == nil {
					t.Logf("server %d: vtrain=%d keys=%d pushes=%d pulls=%d dedup=%d", m, st.VTrain, st.Keys, st.Pushes, st.Pulls, st.DedupHits)
				}
			}
			t.Fatal(err)
		}
	}
	h.auditExactSum(ctx)
	h.shutdown(0, 1, 2)
}

// TestDrainMovesKeysWithoutStopping drains one of three servers while
// workers train: its keys stream to the survivors through the same
// checkpoint format, the drained rank keeps fencing stale traffic until
// the cluster quiesces, and no update is lost or double-applied.
func TestDrainMovesKeysWithoutStopping(t *testing.T) {
	const (
		workers = 2
		iters   = 60
	)
	layout := keyrange.MustLayout([]int{2, 3, 2, 3, 2, 3})
	assign, err := keyrange.EPS(layout, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := &elasticHarness{
		t: t, net: transport.NewChanNetwork(4096), layout: layout,
		srvErrs: make(map[int]chan error), workers: workers, iters: iters,
		before: runtime.NumGoroutine(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	view := clusterview.Bootstrap("", make([]string, 3), make([]string, workers), assign, 1)
	for m := 0; m < 3; m++ {
		h.startServer(m, workers, view)
	}
	h.startWorkers(view)
	h.admin = h.net.Endpoint(transport.Worker(50))

	waitUntil(t, 10*time.Second, "training to reach steady state", func() bool {
		st, err := QueryStats(ctx, h.admin, 2)
		return err == nil && st.Pushes >= 10
	})
	next, err := view.WithDrained(2, layout)
	if err != nil {
		t.Fatal(err)
	}
	// The transition must reach the drained rank too — it donates every
	// key — so the rank set is the union of old and new active sets.
	if err := DistributeView(ctx, h.admin, next, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}

	total := 0
	for m := 0; m < 3; m++ {
		st, err := QueryStats(ctx, h.admin, m)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Keys
		if m == 2 && st.Keys != 0 {
			t.Errorf("drained server still holds %d keys", st.Keys)
		}
	}
	if total != layout.NumKeys() {
		t.Errorf("survivors hold %d of %d keys after drain", total, layout.NumKeys())
	}

	// The drained rank idles but keeps fencing in-flight stale requests;
	// it is shut down only after the workers quiesce.
	for n := 0; n < workers; n++ {
		if err := <-h.wErrs; err != nil {
			t.Fatal(err)
		}
	}
	h.auditExactSum(ctx)
	h.shutdown(2, 0, 1)
}

// A pull buffered as a DPR on a server whose keys then move away is
// rejected as stale-routed at the view install, so the worker reissues
// it to the new owner — instead of waiting forever for a release by
// pushes that now go elsewhere (the drain wedge).
func TestViewInstallRejectsStrandedDPR(t *testing.T) {
	layout := keyrange.MustLayout([]int{2, 3, 2, 3})
	assign, err := keyrange.EPS(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChanNetwork(64)
	view := clusterview.Bootstrap("", make([]string, 2), make([]string, 2), assign, 1)
	for m := 0; m < 2; m++ {
		srv, err := NewServer(net.Endpoint(transport.Server(m)), ServerConfig{
			Rank: m, NumWorkers: 2, Layout: layout,
			Model: syncmodel.BSP(), Drain: syncmodel.Lazy, View: view,
		})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Run()
	}
	admin := net.Endpoint(transport.Worker(50))
	t.Cleanup(func() {
		for m := 0; m < 2; m++ {
			_ = admin.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(m)})
		}
		admin.Close()
	})
	ep0 := net.Endpoint(transport.Worker(0))
	defer ep0.Close()

	// Worker 0 pushes round 0 and pulls; under BSP the pull buffers until
	// worker 1 pushes, which it never does here.
	keys := assign.KeysOf(0)
	grad := kvstore.GatherInto(nil, layout, make([]float64, layout.TotalDim()), keys)
	stamp := view.EpochStamp()
	if err := ep0.Send(&transport.Message{Type: transport.MsgPush, To: transport.Server(0), Seq: 1, View: stamp, Keys: keys, Vals: grad}); err != nil {
		t.Fatal(err)
	}
	if ack, err := ep0.Recv(); err != nil || ack.Type != transport.MsgPushAck {
		t.Fatalf("push answered %v, %v; want push_ack", ack, err)
	}
	if err := ep0.Send(&transport.Message{Type: transport.MsgPull, To: transport.Server(0), Seq: 2, View: stamp, Keys: keys}); err != nil {
		t.Fatal(err)
	}

	// Drain server 0: all its keys move to server 1.
	next, err := view.WithDrained(0, layout)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		if err := admin.Send(&transport.Message{Type: transport.MsgView, To: transport.Server(m), Seq: uint64(m), Vals: next.Encode(nil)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan *transport.Message, 1)
	go func() {
		if m, err := ep0.Recv(); err == nil {
			got <- m
		}
	}()
	select {
	case resp := <-got:
		if resp.Type != transport.MsgStaleView || resp.Seq != 2 {
			t.Fatalf("buffered pull answered %s seq %d, want stale_view seq 2", resp.Type, resp.Seq)
		}
		transport.ReleaseReceived(resp)
	case <-time.After(5 * time.Second):
		t.Fatal("the DPR buffered for keys that moved away was never answered")
	}
}

// A worker that adopted a newer view but still routes by the old
// assignment (requests were in flight at the switch point) stamps the
// old epoch, so a server that gave the keys away fences the request
// instead of taking it as its own.
func TestWorkerStampsRoutingEpoch(t *testing.T) {
	layout := keyrange.MustLayout([]int{2, 3, 2, 3})
	assign, err := keyrange.EPS(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	view := clusterview.Bootstrap("", make([]string, 2), make([]string, 1), assign, 1)
	w, err := NewWorker(transport.NewChanNetwork(4).Endpoint(transport.Worker(0)), WorkerConfig{
		Rank: 0, Layout: layout, View: view,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	next, err := view.WithDrained(1, layout)
	if err != nil {
		t.Fatal(err)
	}
	w.adoptFromWire(next.Encode(nil))
	if got := w.newRequest(transport.MsgPull, 0, 0, nil).msg.View; got != view.EpochStamp() {
		t.Fatalf("request routed by the old assignment stamped epoch %d, want %d", got, view.EpochStamp())
	}
	w.maybeAdoptAssignment()
	if got := w.newRequest(transport.MsgPull, 0, 0, nil).msg.View; got != next.EpochStamp() {
		t.Fatalf("request after the assignment switch stamped epoch %d, want %d", got, next.EpochStamp())
	}
}
