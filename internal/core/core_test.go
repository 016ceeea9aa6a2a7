package core

import (
	"context"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// testServer runs one server owning the whole key space, for the given
// number of workers, over an in-process network.
func testServer(t *testing.T, model syncmodel.Model, drain syncmodel.DrainPolicy, workers int) (*transport.ChanNetwork, *Server, *keyrange.Layout, *keyrange.Assignment) {
	t.Helper()
	return testServerApply(t, model, drain, workers, 0)
}

// testServerApply is testServer with an explicit ApplyWorkers, for tests
// that must cover the serial (1) and batched (>1) apply loops whatever
// the machine's GOMAXPROCS.
func testServerApply(t *testing.T, model syncmodel.Model, drain syncmodel.DrainPolicy, workers, applyWorkers int) (*transport.ChanNetwork, *Server, *keyrange.Layout, *keyrange.Assignment) {
	t.Helper()
	layout := keyrange.MustLayout([]int{2, 3})
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChanNetwork(64)
	srv, err := NewServer(net.Endpoint(transport.Server(0)), ServerConfig{
		Rank:         0,
		NumWorkers:   workers,
		Layout:       layout,
		Assignment:   assign,
		Model:        model,
		Drain:        drain,
		ApplyWorkers: applyWorkers,
		Init: func(k keyrange.Key, seg []float64) {
			for i := range seg {
				seg[i] = 1
			}
		},
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
	return net, srv, layout, assign
}

func TestServerConfigValidation(t *testing.T) {
	layout := keyrange.MustLayout([]int{2})
	assign, _ := keyrange.EPS(layout, 1)
	net := transport.NewChanNetwork(4)
	base := ServerConfig{Rank: 0, NumWorkers: 2, Layout: layout, Assignment: assign, Model: syncmodel.BSP()}

	cfg := base
	cfg.Model = syncmodel.Model{}
	if _, err := NewServer(net.Endpoint(transport.Server(0)), cfg); err == nil {
		t.Error("missing model accepted")
	}
	cfg = base
	cfg.NumWorkers = 0
	if _, err := NewServer(net.Endpoint(transport.Server(0)), cfg); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewServer(net.Endpoint(transport.Worker(0)), base); err == nil {
		t.Error("mismatched endpoint id accepted")
	}
}

func TestWorkerEndpointValidation(t *testing.T) {
	layout := keyrange.MustLayout([]int{2})
	assign, _ := keyrange.EPS(layout, 1)
	net := transport.NewChanNetwork(4)
	if _, err := NewWorker(net.Endpoint(transport.Server(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign}); err == nil {
		t.Error("server endpoint accepted as worker")
	}
}

func TestPushAppliesScaledGradient(t *testing.T) {
	net, srv, layout, assign := testServer(t, syncmodel.ASP(), syncmodel.Lazy, 2)
	w, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	delta := []float64{2, 2, 4, 4, 4}
	if err := w.SPush(tctx, 0, delta); err != nil {
		t.Fatal(err)
	}
	params := make([]float64, 5)
	if err := w.SPull(tctx, 0, params); err != nil {
		t.Fatal(err)
	}
	// init 1 everywhere, delta/N with N=2.
	want := []float64{2, 2, 3, 3, 3}
	for i := range want {
		if params[i] != want[i] {
			t.Fatalf("params = %v, want %v", params, want)
		}
	}
	if st := srv.Stats(); st.Pushes != 1 || st.Pulls != 1 {
		t.Errorf("server stats %+v", st)
	}
}

func TestBSPPullBlocksUntilRoundClosesOverTransport(t *testing.T) {
	net, srv, layout, assign := testServer(t, syncmodel.BSP(), syncmodel.Lazy, 2)
	w0, _ := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	w1, _ := NewWorker(net.Endpoint(transport.Worker(1)), WorkerConfig{Rank: 1, Layout: layout, Assignment: assign})
	defer w0.Close()
	defer w1.Close()

	if err := w0.SPush(tctx, 0, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	pulled := make(chan error, 1)
	go func() {
		params := make([]float64, 5)
		pulled <- w0.SPull(tctx, 0, params)
	}()
	select {
	case err := <-pulled:
		t.Fatalf("BSP pull completed before round closed (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
		// expected: delayed
	}
	// Worker 1 closes round 0; the DPR drains and the pull completes.
	if err := w1.SPush(tctx, 0, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pulled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull never released after round close")
	}
	if st := srv.Stats(); st.DPRs != 1 {
		t.Errorf("DPRs = %d, want 1", st.DPRs)
	}
}

func TestPullRespectsRequestedKeys(t *testing.T) {
	net, _, layout, assign := testServer(t, syncmodel.ASP(), syncmodel.Lazy, 1)
	w, _ := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	defer w.Close()
	params := make([]float64, 5)
	if err := w.SPull(tctx, 0, params); err != nil {
		t.Fatal(err)
	}
	for i, v := range params {
		if v != 1 {
			t.Fatalf("params[%d] = %v, want server init 1", i, v)
		}
	}
}

func TestSchedulerRegistrationQuorum(t *testing.T) {
	net := transport.NewChanNetwork(16)
	sched, err := NewScheduler(net.Endpoint(transport.Scheduler()), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	go sched.Run(context.Background())
	defer func() {
		ep := net.Endpoint(transport.Worker(50))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Scheduler()})
		ep.Close()
	}()

	results := make(chan error, 3)
	register := func(id transport.NodeID) {
		results <- Register(context.Background(), net.Endpoint(id))
	}
	go register(transport.Server(0))
	go register(transport.Worker(0))
	// With only 2 of 3 nodes, nobody is acked yet.
	select {
	case err := <-results:
		t.Fatalf("registration acked before quorum (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	go register(transport.Worker(1))
	for i := 0; i < 3; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("registration never completed")
		}
	}
	if alive := sched.Alive(time.Minute); len(alive) != 3 {
		t.Errorf("Alive = %v, want 3 nodes", alive)
	}
}

func TestSchedulerValidation(t *testing.T) {
	net := transport.NewChanNetwork(4)
	if _, err := NewScheduler(net.Endpoint(transport.Server(0)), 1, 1); err == nil {
		t.Error("non-scheduler endpoint accepted")
	}
	if _, err := NewScheduler(net.Endpoint(transport.Scheduler()), 0, 1); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestStartHeartbeatsLoop(t *testing.T) {
	net := transport.NewChanNetwork(64)
	sched, _ := NewScheduler(net.Endpoint(transport.Scheduler()), 1, 1)
	go sched.Run(context.Background())
	ep := net.Endpoint(transport.Worker(3))
	stop := make(chan struct{})
	done := StartHeartbeats(ep, 5*time.Millisecond, stop)

	waitUntil(t, 2*time.Second, "heartbeats to arrive", func() bool {
		return len(sched.Alive(time.Minute)) == 1
	})
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat loop did not stop")
	}
	// Closing the endpoint also terminates a running loop. Wait until the
	// second loop's heartbeats are provably flowing (the scheduler sees
	// both workers) so the close tears down a live loop, not one that
	// never started.
	ep2 := net.Endpoint(transport.Worker(4))
	done2 := StartHeartbeats(ep2, time.Millisecond, nil)
	waitUntil(t, 2*time.Second, "second heartbeat loop to register", func() bool {
		return len(sched.Alive(time.Minute)) == 2
	})
	ep2.Close()
	net.Endpoint(transport.Scheduler()).Close()
	select {
	case <-done2:
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat loop did not stop after endpoint close")
	}
}

func TestSchedulerHeartbeats(t *testing.T) {
	net := transport.NewChanNetwork(16)
	sched, _ := NewScheduler(net.Endpoint(transport.Scheduler()), 1, 1)
	go sched.Run(context.Background())
	ep := net.Endpoint(transport.Worker(0))
	defer ep.Close()
	if err := ep.Send(&transport.Message{Type: transport.MsgHeartbeat, To: transport.Scheduler()}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "heartbeat to be recorded", func() bool {
		return len(sched.Alive(time.Minute)) == 1
	})
}

func TestSchedulerDistributesAssignment(t *testing.T) {
	layout := keyrange.MustLayout([]int{2, 3, 4})
	canonical, err := keyrange.EPS(layout, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChanNetwork(32)
	sched, err := NewScheduler(net.Endpoint(transport.Scheduler()), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched.DistributeAssignment(canonical)
	go sched.Run(context.Background())
	defer func() {
		ep := net.Endpoint(transport.Worker(70))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Scheduler()})
		ep.Close()
	}()

	results := make(chan *keyrange.Assignment, 2)
	errs := make(chan error, 2)
	for _, id := range []transport.NodeID{transport.Server(0), transport.Worker(0)} {
		go func(id transport.NodeID) {
			a, err := RegisterAndFetch(context.Background(), net.Endpoint(id), layout)
			errs <- err
			results <- a
		}(id)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		got := <-results
		if got == nil {
			t.Fatal("no assignment distributed")
		}
		if keyrange.Moved(canonical, got) != 0 {
			t.Error("distributed assignment differs from the canonical one")
		}
	}
}
