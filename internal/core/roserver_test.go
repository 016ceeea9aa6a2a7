package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// Tests for the read-optimized serving tier (roserver.go): RO pulls over
// the server endpoint and over mux streams, epoch bounds, admission
// control, the inline fallback, and pool shutdown hygiene.

func TestROPullServesSnapshots(t *testing.T) {
	reg := telemetry.New()
	layout := keyrange.MustLayout([]int{2, 3})
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	cnet := transport.NewChanNetwork(64)
	srv, err := NewServer(cnet.Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 1, Layout: layout, Assignment: assign,
		Model: syncmodel.ASP(), Drain: syncmodel.Lazy,
		Init: func(k keyrange.Key, seg []float64) {
			for i := range seg {
				seg[i] = 1
			}
		},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	t.Cleanup(func() {
		ep := cnet.Endpoint(transport.Worker(99))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)})
		ep.Close()
	})

	ro := NewROClient(cnet.Endpoint(transport.Worker(7)), 0)
	dst := make([]float64, layout.TotalDim())
	epoch, vtrain, err := ro.Pull(tctx, dst)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || vtrain != 0 {
		t.Fatalf("boot snapshot epoch %d vtrain %d, want 1/0", epoch, vtrain)
	}
	for i, v := range dst {
		if v != 1 {
			t.Fatalf("boot pull scalar %d = %v, want init value 1", i, v)
		}
	}

	// A push advances V_train; the apply-wave boundary publishes a new
	// epoch, and the synchronous SPull fences the RO pull behind it.
	w, err := NewWorker(cnet.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.SPush(tctx, 0, []float64{2, 2, 4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	params := make([]float64, layout.TotalDim())
	if err := w.SPull(tctx, 0, params); err != nil {
		t.Fatal(err)
	}

	epoch2, vtrain2, err := ro.Pull(tctx, dst)
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 <= epoch {
		t.Fatalf("epoch did not advance after a push: %d -> %d", epoch, epoch2)
	}
	if vtrain2 < 1 {
		t.Fatalf("snapshot vtrain %d after a push, want >= 1", vtrain2)
	}
	// ASP scales pushes by 1/NumWorkers (=1): init 1 + delta.
	want := []float64{3, 3, 5, 5, 5}
	for i, v := range dst {
		if v != want[i] {
			t.Fatalf("post-push RO pull = %v, want %v", dst, want)
		}
	}
	if ro.Epoch() != epoch2 {
		t.Fatalf("client epoch %d, want %d (monotone bound)", ro.Epoch(), epoch2)
	}

	// Subset pull: just key 1 (3 scalars), via the copying path.
	sub := make([]float64, 3)
	if _, _, err := ro.PullKeys(tctx, []keyrange.Key{1}, sub); err != nil {
		t.Fatal(err)
	}
	if sub[0] != 5 || sub[1] != 5 || sub[2] != 5 {
		t.Fatalf("subset pull = %v, want [5 5 5]", sub)
	}

	// Telemetry and stats surface the read tier.
	if reg.Counter("server.ro_pulls").Value() < 3 {
		t.Fatalf("ro_pulls = %d, want >= 3", reg.Counter("server.ro_pulls").Value())
	}
	if reg.Gauge("server.snapshot_epoch").Value() < 2 {
		t.Fatalf("snapshot_epoch gauge = %d, want >= 2", reg.Gauge("server.snapshot_epoch").Value())
	}
	sep := cnet.Endpoint(transport.Worker(98))
	defer sep.Close()
	st, err := QueryStats(tctx, sep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ROPulls < 3 || st.SnapshotEpoch < 2 {
		t.Fatalf("stats ROPulls=%d SnapshotEpoch=%d, want >=3 / >=2", st.ROPulls, st.SnapshotEpoch)
	}
}

// An epoch bound ahead of the published snapshot cannot be served: the
// server answers retry-after, and the client-side loop backs off until
// the ctx expires when no satisfying snapshot will ever appear.
func TestROPullUnsatisfiableEpochBound(t *testing.T) {
	cnet, _, _, _ := testServer(t, syncmodel.ASP(), syncmodel.Lazy, 2)

	ep := cnet.Endpoint(transport.Worker(12))
	defer ep.Close()
	req := &transport.Message{Type: transport.MsgPullRO, To: transport.Server(0), Seq: 9, View: 1 << 20}
	if err := ep.Send(req); err != nil {
		t.Fatal(err)
	}
	resp, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	defer transport.ReleaseReceived(resp)
	if resp.Type != transport.MsgPullRORetry {
		t.Fatalf("got %s, want pull_ro_retry", resp.Type)
	}
	if resp.Seq != 9 || resp.Progress != DefaultRetryAfterMs {
		t.Fatalf("retry seq=%d hint=%d, want 9/%d", resp.Seq, resp.Progress, DefaultRetryAfterMs)
	}

	// An unknown key can likewise never be served; the client honors the
	// retry hint and gives up with the context.
	ro := NewROClient(cnet.Endpoint(transport.Worker(13)), 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, _, err := ro.PullKeys(ctx, []keyrange.Key{99}, nil); err == nil {
		t.Fatal("pull of an unknown key succeeded")
	}
}

// HandleRO serves ROClients over mux streams end to end: many streams,
// one session, every reader seeing whole consistent snapshots.
func TestHandleROOverMux(t *testing.T) {
	_, srv, layout, _ := testServer(t, syncmodel.ASP(), syncmodel.Lazy, 2)

	cc, sc := net.Pipe()
	serverSess := transport.NewMuxServer(sc, transport.MuxConfig{})
	clientSess := transport.NewMuxClient(cc, transport.MuxConfig{})
	t.Cleanup(func() { _ = clientSess.Close(); _ = serverSess.Close() })
	go func() {
		for {
			st, err := serverSess.AcceptStream()
			if err != nil {
				return
			}
			go func(st *transport.MuxStream) { _ = srv.HandleRO(st) }(st)
		}
	}()

	const clients, pulls = 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := clientSess.OpenStream()
			if err != nil {
				fail(err)
				return
			}
			defer st.Close()
			ro := NewROClient(st, 0)
			dst := make([]float64, layout.TotalDim())
			for n := 0; n < pulls; n++ {
				if _, _, err := ro.Pull(tctx, dst); err != nil {
					fail(err)
					return
				}
				for j, v := range dst {
					if v != 1 {
						fail(fmt.Errorf("torn RO pull: scalar %d = %v, want 1", j, v))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := int(srv.roServed.Load()); got < clients*pulls {
		t.Fatalf("served %d RO pulls, want >= %d", got, clients*pulls)
	}
}

// Admission control: with the reader pool not yet draining (server not
// running), the queue fills to its depth and the next submit is shed
// with an immediate retry-after instead of blocking or growing.
func TestROAdmissionControlShedsWhenSaturated(t *testing.T) {
	layout := keyrange.MustLayout([]int{2})
	assign, _ := keyrange.EPS(layout, 1)
	cnet := transport.NewChanNetwork(4)
	srv, err := NewServer(cnet.Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 1, Layout: layout, Assignment: assign,
		Model: syncmodel.ASP(), ReaderPool: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	sink := &captureSender{}
	depth := roQueueDepth(1)
	for i := 0; i < depth; i++ {
		srv.submitRO(&transport.Message{Type: transport.MsgPullRO, Seq: uint64(i)}, sink)
	}
	if len(sink.msgs) != 0 {
		t.Fatalf("pool queue shed %d messages before saturation", len(sink.msgs))
	}
	srv.submitRO(&transport.Message{Type: transport.MsgPullRO, Seq: 999}, sink)
	if len(sink.msgs) != 1 || sink.msgs[0].Type != transport.MsgPullRORetry {
		t.Fatalf("saturated submit answered %+v, want one pull_ro_retry", sink.msgs)
	}
	if sink.msgs[0].Seq != 999 || sink.msgs[0].Progress != DefaultRetryAfterMs {
		t.Fatalf("retry seq=%d hint=%d", sink.msgs[0].Seq, sink.msgs[0].Progress)
	}
}

type captureSender struct{ msgs []*transport.Message }

func (c *captureSender) Send(m *transport.Message) error {
	c.msgs = append(c.msgs, m)
	return nil
}

// ReaderPool < 0 disables the pool: the apply loop serves MsgPullRO
// inline, still from the snapshot.
func TestROInlineFallback(t *testing.T) {
	layout := keyrange.MustLayout([]int{2, 3})
	assign, _ := keyrange.EPS(layout, 1)
	cnet := transport.NewChanNetwork(64)
	srv, err := NewServer(cnet.Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 2, Layout: layout, Assignment: assign,
		Model: syncmodel.ASP(), Drain: syncmodel.Lazy,
		Init:       func(k keyrange.Key, seg []float64) { seg[0] = 4 },
		ReaderPool: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.roQueue != nil {
		t.Fatal("ReaderPool=-1 still built a pool queue")
	}
	go srv.Run()
	t.Cleanup(func() {
		ep := cnet.Endpoint(transport.Worker(99))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)})
		ep.Close()
	})

	ro := NewROClient(cnet.Endpoint(transport.Worker(7)), 0)
	dst := make([]float64, layout.TotalDim())
	epoch, _, err := ro.Pull(tctx, dst)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || dst[0] != 4 || dst[2] != 4 || dst[1] != 0 {
		t.Fatalf("inline RO pull epoch=%d dst=%v", epoch, dst)
	}
}

// The reader pool's goroutines exit with Run: repeated server lifecycles
// leave no goroutines behind (the leakcheck discipline, dynamically).
func TestROReaderPoolShutdownLeakFree(t *testing.T) {
	layout := keyrange.MustLayout([]int{2})
	assign, _ := keyrange.EPS(layout, 1)
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		cnet := transport.NewChanNetwork(16)
		sep := cnet.Endpoint(transport.Server(0))
		srv, err := NewServer(sep, ServerConfig{
			Rank: 0, NumWorkers: 1, Layout: layout, Assignment: assign,
			Model: syncmodel.ASP(), ReaderPool: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Run() }()

		rep := cnet.Endpoint(transport.Worker(3))
		ro := NewROClient(rep, 0)
		if _, _, err := ro.Pull(tctx, nil); err != nil {
			t.Fatal(err)
		}
		rep.Close()
		ep := cnet.Endpoint(transport.Worker(99))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)})
		ep.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// Unblock the receive goroutine still parked in Recv.
		sep.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across server lifecycles: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// roTierServer starts a one-shard ASP server with the given apply-loop
// width and housekeeping period, plus its training worker.
func roTierServer(t *testing.T, applyWorkers int, tick time.Duration) (*transport.ChanNetwork, *Server, *Worker, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New()
	layout := keyrange.MustLayout([]int{2, 3})
	assign, err := keyrange.EPS(layout, 1)
	if err != nil {
		t.Fatal(err)
	}
	cnet := transport.NewChanNetwork(64)
	srv, err := NewServer(cnet.Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 1, Layout: layout, Assignment: assign,
		Model: syncmodel.ASP(), Drain: syncmodel.Lazy,
		ApplyWorkers: applyWorkers, AdaptEvery: tick, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	w, err := NewWorker(cnet.Endpoint(transport.Worker(0)), WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		ep := cnet.Endpoint(transport.Worker(99))
		_ = ep.Send(&transport.Message{Type: transport.MsgShutdown, To: transport.Server(0)})
		ep.Close()
	})
	return cnet, srv, w, reg
}

// trainWaves runs n synchronous push+pull steps from iteration first,
// leaving the pulled parameters in params.
func trainWaves(t *testing.T, w *Worker, first, n int, params []float64) {
	t.Helper()
	delta := []float64{1, 2, 3, 4, 5}
	for i := first; i < first+n; i++ {
		if err := w.SPush(tctx, i, delta); err != nil {
			t.Fatal(err)
		}
		if err := w.SPull(tctx, i, params); err != nil {
			t.Fatal(err)
		}
	}
}

// The read tier sleeps until its first reader: a server nobody reads
// from trains without publishing, the first RO pull wakes it, and one
// wave later an RO pull sees the live V_train. Both apply loops.
func TestROTierSleepsUntilFirstRead(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("applyWorkers=%d", workers), func(t *testing.T) {
			cnet, srv, w, reg := roTierServer(t, workers, time.Hour)
			params := make([]float64, 5)
			trainWaves(t, w, 0, 100, params)

			if got := reg.Gauge("server.snapshot_epoch").Value(); got != 1 {
				t.Fatalf("snapshot_epoch = %d after 100 reader-free waves, want the boot epoch 1", got)
			}
			if n := reg.Histogram("server.snapshot_publish_ns").Count(); n != 0 {
				t.Fatalf("%d snapshot publishes without a reader, want 0", n)
			}
			if srv.roAwake.Load() {
				t.Fatal("read tier awake before any reader")
			}

			ro := NewROClient(cnet.Endpoint(transport.Worker(7)), 0)
			epoch, vtrain, err := ro.Pull(tctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if epoch != 1 || vtrain != 0 {
				t.Fatalf("first RO pull got epoch %d vtrain %d, want the boot snapshot 1/0", epoch, vtrain)
			}
			if !srv.roAwake.Load() {
				t.Fatal("the first RO pull did not wake the read tier")
			}

			trainWaves(t, w, 100, 1, params)
			dst := make([]float64, 5)
			_, vtrain, err = ro.Pull(tctx, dst)
			if err != nil {
				t.Fatal(err)
			}
			admin := cnet.Endpoint(transport.Worker(8))
			defer admin.Close()
			st, err := QueryStats(tctx, admin, 0)
			if err != nil {
				t.Fatal(err)
			}
			if vtrain != st.VTrain || vtrain < 101 {
				t.Fatalf("RO pull one wave after waking: vtrain %d, live V_train %d", vtrain, st.VTrain)
			}
			for i := range dst {
				if dst[i] != params[i] {
					t.Fatalf("RO pull %v, worker pull %v", dst, params)
				}
			}
		})
	}
}

// A tier woken after training went idle gets the final parameters from
// the housekeeping tick — exactly one publish, since V_train no longer
// moves — instead of serving the boot snapshot forever. Both apply
// loops; a HandleRO attach is the wake-up.
func TestROTierWokenWhenIdlePublishesOnTick(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("applyWorkers=%d", workers), func(t *testing.T) {
			const tick = 5 * time.Millisecond
			_, srv, w, reg := roTierServer(t, workers, tick)
			params := make([]float64, 5)
			trainWaves(t, w, 0, 100, params)

			cc, sc := net.Pipe()
			serverSess := transport.NewMuxServer(sc, transport.MuxConfig{})
			clientSess := transport.NewMuxClient(cc, transport.MuxConfig{})
			t.Cleanup(func() { _ = clientSess.Close(); _ = serverSess.Close() })
			go func() {
				st, err := serverSess.AcceptStream()
				if err == nil {
					_ = srv.HandleRO(st)
				}
			}()
			st, err := clientSess.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			ro := NewROClient(st, 0)
			dst := make([]float64, 5)
			waitUntil(t, 5*time.Second, "the idle tick to publish the final parameters", func() bool {
				_, vtrain, err := ro.Pull(tctx, dst)
				if err != nil {
					t.Fatal(err)
				}
				return vtrain == 100
			})
			for i := range dst {
				if dst[i] != params[i] {
					t.Fatalf("RO pull %v, final parameters %v", dst, params)
				}
			}
			holdsFor(t, 10*tick, "no republish while V_train stands still", func() bool {
				return reg.Gauge("server.snapshot_epoch").Value() == 2
			})
		})
	}
}

// fakeROConn is an in-memory ROConn: Recv drains in (then fails with
// err, ErrClosed by default), Send collects into out.
type fakeROConn struct {
	in  chan *transport.Message
	out []*transport.Message
	err error
}

func (c *fakeROConn) Recv() (*transport.Message, error) {
	if m, ok := <-c.in; ok {
		return m, nil
	}
	if c.err != nil {
		return nil, c.err
	}
	return nil, transport.ErrClosed
}

func (c *fakeROConn) Send(m *transport.Message) error {
	c.out = append(c.out, m)
	return nil
}

// HandleRO with the reader pool disabled serves each MsgPullRO inline on
// the stream's goroutine, skips any other message type, returns nil on
// a clean close, and surfaces any other receive error.
func TestHandleROInlineSkipsAndCloses(t *testing.T) {
	layout := keyrange.MustLayout([]int{2, 3})
	assign, _ := keyrange.EPS(layout, 1)
	srv, err := NewServer(transport.NewChanNetwork(4).Endpoint(transport.Server(0)), ServerConfig{
		Rank: 0, NumWorkers: 1, Layout: layout, Assignment: assign,
		Model: syncmodel.ASP(), ReaderPool: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := &fakeROConn{in: make(chan *transport.Message, 3)}
	conn.in <- &transport.Message{Type: transport.MsgPush, Seq: 1}
	conn.in <- &transport.Message{Type: transport.MsgPullRO, Seq: 2}
	close(conn.in)
	if err := srv.HandleRO(conn); err != nil {
		t.Fatalf("HandleRO on a clean close: %v", err)
	}
	if len(conn.out) != 1 || conn.out[0].Type != transport.MsgPullROResp || conn.out[0].Seq != 2 {
		t.Fatalf("HandleRO answered %+v, want one pull_ro_resp seq 2", conn.out)
	}
	if !srv.roAwake.Load() {
		t.Fatal("a HandleRO attach did not wake the read tier")
	}

	broken := &fakeROConn{in: make(chan *transport.Message), err: errors.New("conn reset")}
	close(broken.in)
	if err := srv.HandleRO(broken); err == nil || err.Error() != "conn reset" {
		t.Fatalf("HandleRO on a broken conn returned %v, want the receive error", err)
	}
}
