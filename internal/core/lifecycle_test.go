package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// recvDeadEndpoint wraps a live endpoint but fails Recv on demand while
// Send keeps working — the exact state after a one-directional connection
// loss, which used to hang operations started afterwards.
type recvDeadEndpoint struct {
	transport.Endpoint
	die chan struct{}
}

func (e *recvDeadEndpoint) Recv() (*transport.Message, error) {
	<-e.die
	return nil, errors.New("injected recv failure")
}

// TestWorkerFailsFastAfterRecvLoopDeath: once the receive loop has died,
// a new SPush/SPull with zero timeout must return an error immediately
// instead of registering a request nothing will ever answer (the
// historical hang: expect() re-registered into a map whose closer had
// already run).
func TestWorkerFailsFastAfterRecvLoopDeath(t *testing.T) {
	net, _, layout, assign := testServer(t, syncmodel.ASP(), syncmodel.Lazy, 2)
	ep := &recvDeadEndpoint{Endpoint: net.Endpoint(transport.Worker(0)), die: make(chan struct{})}
	w, err := NewWorker(ep, WorkerConfig{Rank: 0, Layout: layout, Assignment: assign})
	if err != nil {
		t.Fatal(err)
	}
	close(ep.die)
	<-w.done // receive loop has fully shut down

	// Zero timeout: the old implementation blocked forever here.
	done := make(chan error, 1)
	go func() { done <- w.SPush(tctx, 0, make([]float64, 5)) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("SPush succeeded after receive loop death")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SPush hung after receive loop death")
	}
	done = make(chan error, 1)
	go func() { done <- w.SPull(tctx, 0, make([]float64, 5)) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("SPull succeeded after receive loop death")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SPull hung after receive loop death")
	}
	if n := w.Outstanding(); n != 0 {
		t.Fatalf("waiting table holds %d entries after fail-fast operations", n)
	}
}

// TestWorkerTimeoutDoesNotLeakWaiting: repeated timeouts must not grow
// the waiting table — every abandoned request is removed (the historical
// leak: await returned on timeout without deleting the entry).
func TestWorkerTimeoutDoesNotLeakWaiting(t *testing.T) {
	net, _, layout, assign := testServer(t, syncmodel.BSP(), syncmodel.Lazy, 2)
	w, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{
		Rank: 0, Layout: layout, Assignment: assign,
		Timeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Worker 1 never pushes, so under BSP every pull is buffered
	// server-side and every client-side wait times out.
	const rounds = 40
	for i := 0; i < rounds; i++ {
		if err := w.SPull(tctx, i, make([]float64, 5)); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: err = %v, want ErrTimeout", i, err)
		}
	}
	if n := w.Outstanding(); n != 0 {
		t.Fatalf("waiting table holds %d entries after %d timeouts, want 0", n, rounds)
	}
	if st := w.Stats(); st.Timeouts != rounds {
		t.Fatalf("Timeouts = %d, want %d", st.Timeouts, rounds)
	}
}

// TestDuplicatePushAppliedOnce: the same (From, Seq) push delivered twice
// must be applied to the shard exactly once, acked twice, and counted as
// one dedup hit — the idempotence that makes transport retries safe.
// Inline and pooled apply.
func TestDuplicatePushAppliedOnce(t *testing.T) {
	for _, aw := range []int{1, 2} {
		t.Run(fmt.Sprintf("applyWorkers=%d", aw), func(t *testing.T) {
			net, srv, layout, assign := testServerApply(t, syncmodel.ASP(), syncmodel.Lazy, 2, aw)
			ep := net.Endpoint(transport.Worker(0))
			defer ep.Close()

			keys := assign.KeysOf(0)
			delta := make([]float64, layout.TotalDim())
			for i := range delta {
				delta[i] = 2
			}
			push := &transport.Message{
				Type:     transport.MsgPush,
				To:       transport.Server(0),
				Seq:      42,
				Progress: 0,
				Keys:     keys,
				Vals:     kvstore.GatherInto(nil, layout, delta, keys),
			}
			for i := 0; i < 2; i++ {
				if err := ep.Send(push); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				ack, err := ep.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if ack.Type != transport.MsgPushAck || ack.Seq != 42 {
					t.Fatalf("reply %d = %s seq %d, want push_ack seq 42", i, ack.Type, ack.Seq)
				}
				transport.ReleaseReceived(ack)
			}

			// Parameters start at 1 (testServer's Init); one push of 2 scaled by
			// 1/N with N=2 gives 2.0 — a double application would give 3.0.
			pull := &transport.Message{Type: transport.MsgPull, To: transport.Server(0), Seq: 43, Keys: keys}
			if err := ep.Send(pull); err != nil {
				t.Fatal(err)
			}
			resp, err := ep.Recv()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range resp.Vals {
				if v != 2.0 {
					t.Fatalf("param[%d] = %v, want 2.0 (duplicate push was re-applied)", i, v)
				}
			}
			transport.ReleaseReceived(resp)
			st := srv.Stats()
			if st.DedupHits != 1 {
				t.Fatalf("DedupHits = %d, want 1", st.DedupHits)
			}
			if st.Pushes != 1 {
				t.Fatalf("controller Pushes = %d, want 1", st.Pushes)
			}
		})
	}
}

// TestDuplicatePullReanswered: a duplicated pull whose original was
// already answered (the lost-response case) is answered again; one whose
// original is still buffered as a DPR is ignored, then answered once on
// release. Inline and pooled apply.
func TestDuplicatePullLifecycle(t *testing.T) {
	for _, aw := range []int{1, 2} {
		t.Run(fmt.Sprintf("applyWorkers=%d", aw), func(t *testing.T) {
			net, srv, layout, assign := testServerApply(t, syncmodel.BSP(), syncmodel.Lazy, 2, aw)
			ep0 := net.Endpoint(transport.Worker(0))
			ep1 := net.Endpoint(transport.Worker(1))
			defer ep0.Close()
			defer ep1.Close()
			keys := assign.KeysOf(0)
			zero := kvstore.GatherInto(nil, layout, make([]float64, layout.TotalDim()), keys)

			// Worker 0 pushes round 0 and pulls; under BSP the pull waits for
			// worker 1 — send it twice while it is buffered.
			if err := ep0.Send(&transport.Message{Type: transport.MsgPush, To: transport.Server(0), Seq: 1, Keys: keys, Vals: zero}); err != nil {
				t.Fatal(err)
			}
			if _, err := ep0.Recv(); err != nil { // push ack
				t.Fatal(err)
			}
			pull := &transport.Message{Type: transport.MsgPull, To: transport.Server(0), Seq: 2, Progress: 0, Keys: keys}
			if err := ep0.Send(pull); err != nil {
				t.Fatal(err)
			}
			if err := ep0.Send(pull); err != nil { // duplicate of a pending DPR
				t.Fatal(err)
			}
			// Worker 1's push closes the round and releases the DPR.
			if err := ep1.Send(&transport.Message{Type: transport.MsgPush, To: transport.Server(0), Seq: 1, Keys: keys, Vals: zero, Progress: 0}); err != nil {
				t.Fatal(err)
			}
			resp, err := ep0.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Type != transport.MsgPullResp || resp.Seq != 2 {
				t.Fatalf("got %s seq %d, want pull_resp seq 2", resp.Type, resp.Seq)
			}
			// The duplicate of the pending DPR must NOT have produced a second
			// response. Delivery per peer pair is FIFO, so a stats probe sent now
			// must be answered *next* — any extra pull response would arrive
			// before it.
			if err := ep0.Send(&transport.Message{Type: transport.MsgStats, To: transport.Server(0), Seq: 99}); err != nil {
				t.Fatal(err)
			}
			probe, err := ep0.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if probe.Type != transport.MsgStatsResp {
				t.Fatalf("got %s seq %d, want stats_resp (buffered duplicate answered twice)", probe.Type, probe.Seq)
			}
			transport.ReleaseReceived(probe)
			// But a duplicate arriving after the answer (lost response) is
			// re-answered with current parameters.
			if err := ep0.Send(pull); err != nil {
				t.Fatal(err)
			}
			resp, err = ep0.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Type != transport.MsgPullResp || resp.Seq != 2 {
				t.Fatalf("got %s seq %d, want re-answered pull_resp seq 2", resp.Type, resp.Seq)
			}
			transport.ReleaseReceived(resp)
			if st := srv.Stats(); st.DedupHits != 2 || st.Pulls != 1 {
				t.Fatalf("DedupHits = %d, Pulls = %d; want 2 dedup hits and 1 controller pull", st.DedupHits, st.Pulls)
			}
		})
	}
}

// dropFirstN drops the first n outbound data-plane frames, determinist-
// ically forcing the retry path.
type dropFirstN struct {
	transport.Endpoint
	mu sync.Mutex
	n  int
}

func (e *dropFirstN) Send(m *transport.Message) error {
	if m.Type == transport.MsgPush || m.Type == transport.MsgPull {
		e.mu.Lock()
		if e.n > 0 {
			e.n--
			e.mu.Unlock()
			return nil
		}
		e.mu.Unlock()
	}
	return e.Endpoint.Send(m)
}

// TestWorkerRetryRecoversDroppedRequest: with retries enabled a dropped
// push is retransmitted under the same seq and the operation completes;
// the server counts no dedup hit (the first copy never arrived) and
// applies once.
func TestWorkerRetryRecoversDroppedRequest(t *testing.T) {
	net, srv, layout, assign := testServer(t, syncmodel.ASP(), syncmodel.Lazy, 1)
	ep := &dropFirstN{Endpoint: net.Endpoint(transport.Worker(0)), n: 2}
	w, err := NewWorker(ep, WorkerConfig{
		Rank: 0, Layout: layout, Assignment: assign,
		Timeout: 5 * time.Second,
		Retry:   RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	delta := make([]float64, layout.TotalDim())
	for i := range delta {
		delta[i] = 2
	}
	if err := w.SPush(tctx, 0, delta); err != nil { // first copy dropped
		t.Fatal(err)
	}
	params := make([]float64, layout.TotalDim())
	if err := w.SPull(tctx, 0, params); err != nil { // first copy dropped
		t.Fatal(err)
	}
	for i, v := range params {
		if v != 3.0 { // init 1 + delta 2 (N=1)
			t.Fatalf("param[%d] = %v, want 3.0", i, v)
		}
	}
	if st := w.Stats(); st.Retries < 2 {
		t.Fatalf("Retries = %d, want ≥ 2", st.Retries)
	}
	if st := srv.Stats(); st.Pushes != 1 {
		t.Fatalf("server Pushes = %d, want 1", st.Pushes)
	}
}

// TestRetryExhaustionFailsRequest: a bounded retry budget turns a dead
// server into a timely ErrTimeout instead of an infinite retransmit loop.
func TestRetryExhaustionFailsRequest(t *testing.T) {
	net, _, layout, assign := testServer(t, syncmodel.BSP(), syncmodel.Lazy, 2)
	w, err := NewWorker(net.Endpoint(transport.Worker(0)), WorkerConfig{
		Rank: 0, Layout: layout, Assignment: assign,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Under BSP with a silent second worker the pull can never be
	// answered; three attempts must exhaust the budget promptly.
	start := time.Now()
	err = w.SPull(tctx, 0, make([]float64, 5))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry exhaustion took %v", elapsed)
	}
	if n := w.Outstanding(); n != 0 {
		t.Fatalf("waiting table holds %d entries after retry exhaustion", n)
	}
}

// A wait timer reused across requests never inherits a stale tick: once
// a timer fired unobserved, idleTimer drains it, so re-arming it for an
// hour does not fire at once (go 1.22 channel-timer semantics buffer the
// tick in the channel).
func TestReusedWaitTimerDropsStaleTick(t *testing.T) {
	var tm *time.Timer
	armTimer(&tm, time.Nanosecond)
	waitUntil(t, 5*time.Second, "the timer to fire", func() bool { return len(tm.C) == 1 })
	idleTimer(tm)
	c := armTimer(&tm, time.Hour)
	select {
	case <-c:
		t.Fatal("re-armed timer delivered the stale tick of its previous use")
	default:
	}
	idleTimer(tm) // armed and unfired: Stop alone idles it
	if len(tm.C) != 0 {
		t.Fatal("idle timer holds a tick")
	}
}
