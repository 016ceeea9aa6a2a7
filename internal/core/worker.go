package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// RetryPolicy configures per-request retransmission. A request whose
// response has not arrived after a backoff interval is re-sent with the
// same sequence number; the server's duplicate window guarantees a
// retransmitted push is applied at most once, so retries upgrade the
// at-least-once transport to effectively-once application.
//
// The zero policy disables retries (a request is sent exactly once and
// only the worker timeout bounds it, the historical behaviour).
type RetryPolicy struct {
	// MaxAttempts bounds the total number of sends per request (first
	// send included). Zero or negative means unlimited retransmissions,
	// bounded only by the worker timeout.
	MaxAttempts int
	// BaseDelay is the first retransmission interval; zero disables
	// retries entirely.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. Zero means no cap.
	MaxDelay time.Duration
}

func (p RetryPolicy) enabled() bool { return p.BaseDelay > 0 }

// delay returns the backoff before retransmission number attempt+1
// (attempt counts from 0): BaseDelay doubled per attempt, capped.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// DefaultPipelineDepth is each per-server outbound queue's capacity when
// WorkerConfig.PipelineDepth is zero.
const DefaultPipelineDepth = 32

// WorkerConfig configures a Worker; it mirrors ServerConfig's options
// shape. Rank, Layout, and Assignment are required.
type WorkerConfig struct {
	// Rank is the worker's index; the endpoint id must be
	// transport.Worker(Rank).
	Rank int
	// Layout is the model's communication layout (shared by all nodes).
	Layout *keyrange.Layout
	// Assignment maps keys to server shards.
	Assignment *keyrange.Assignment
	// Timeout bounds each outstanding request; zero waits forever. A
	// delayed pull legitimately waits for stragglers, so when set it
	// should comfortably exceed the slowest worker's round time.
	Timeout time.Duration
	// Retry enables retransmission of unanswered requests; see
	// RetryPolicy. Safe because servers deduplicate per (worker, seq).
	Retry RetryPolicy
	// PipelineDepth is the capacity of each per-server outbound queue —
	// how many requests to one shard may be queued behind a slow send
	// before SPush/SPull blocks. Zero selects DefaultPipelineDepth.
	PipelineDepth int
	// PayloadCapacity pre-sizes each pooled request's value buffer (in
	// float64s), avoiding regrowth during the first operations. Zero
	// derives it from the layout's largest per-server slice.
	PayloadCapacity int
	// Telemetry, when non-nil, receives the worker's runtime metrics —
	// lifecycle counters, push/pull RTT histograms, queue-depth gauges
	// (see core/telemetry.go). One registry per node; nil disables
	// collection at zero hot-path cost beyond a predictable branch.
	Telemetry *telemetry.Registry
	// View is the epoch-versioned cluster membership the worker starts
	// from. When set it overrides Assignment, every request is stamped
	// with the view's epoch, and the worker adopts newer views pushed to
	// it (or embedded in a stale-view rejection) — re-routing reissued
	// requests to the keys' new owners. Nil keeps the static legacy mode:
	// unstamped requests, assignment changes only via SetAssignment.
	View *clusterview.View
}

// WorkerStats counts the worker's request-lifecycle events.
type WorkerStats struct {
	// Retries is the number of retransmitted requests.
	Retries uint64
	// Timeouts is the number of requests abandoned on timeout.
	Timeouts uint64
	// Stale is the number of responses that arrived after their request
	// was abandoned (late answers to timed-out or retried operations).
	Stale uint64
}

// Worker is a FluentPS client: it pushes updates for and pulls values of
// the full model, splitting requests per server shard and reporting its
// progress with every operation (the paper's sPush/sPull).
//
// A Worker is owned by one training goroutine; SPush/SPull must not be
// called concurrently. Internally, each server shard has a persistent
// sender goroutine behind a bounded queue, so one operation's per-server
// messages go out concurrently (scatter), and a receive loop routes
// responses to the outstanding requests (gather) — slow shards only delay
// the operations that need them.
type Worker struct {
	cfg     WorkerConfig
	ep      transport.Endpoint
	servers int

	seq atomic.Uint64

	mu      sync.Mutex
	waiting map[uint64]*pendingReq
	recvErr error
	done    chan struct{}

	pipes    []*serverPipe
	pipeStop chan struct{}
	pipeWG   sync.WaitGroup

	reqPool sync.Pool // *pendingReq

	retries  atomic.Uint64
	timeouts atomic.Uint64
	stale    atomic.Uint64

	// metrics holds the worker's telemetry instruments (no-ops when
	// cfg.Telemetry is nil); see core/telemetry.go.
	metrics workerMetrics

	// keysPerServer caches each server's key list.
	keysPerServer [][]keyrange.Key

	// views tracks the adopted cluster view (nil in legacy static mode).
	// The receive loop advances it; request paths read it, so access goes
	// through the tracker's lock. viewDirty flags a newly adopted view
	// whose assignment the owning goroutine has not switched to yet;
	// adoptedEpoch (owner-goroutine only) remembers the last switch.
	views        *clusterview.Tracker
	viewDirty    atomic.Bool
	adoptedEpoch uint64
}

// serverPipe is one shard's outbound pipeline: a bounded queue drained by
// a persistent sender goroutine, so a slow or blocking send to one server
// does not serialize the scatter to the others.
type serverPipe struct {
	queue chan *pendingReq
}

// response is what await receives: the server's reply or the reason there
// will never be one.
type response struct {
	msg *transport.Message
	err error
}

// pendingReq is one in-flight request: the response channel the receive
// loop delivers to, plus the original message kept for retransmission.
type pendingReq struct {
	seq uint64
	msg *transport.Message
	ch  chan response // capacity 1; at most one delivery per registration
	// start is the request's creation time, feeding the RTT histograms;
	// zero when telemetry is off.
	start time.Time
	// total and retry are await's timeout and retransmit timers, created
	// on first use and reused by every later wait on this pooled request.
	total, retry *time.Timer
	// sent is set by the pipe after the original send completes; until
	// then the pipe may still read msg, so it must not be recycled.
	sent atomic.Bool
	// discarded marks a fire-and-forget request (guarded by Worker.mu):
	// the receive loop absorbs its ack and recycles it without a Wait.
	discarded bool
}

// NewWorker builds a worker over the given endpoint, whose id must be
// transport.Worker(cfg.Rank).
func NewWorker(ep transport.Endpoint, cfg WorkerConfig) (*Worker, error) {
	if cfg.View != nil {
		if err := cfg.View.Validate(cfg.Layout); err != nil {
			return nil, fmt.Errorf("core: worker %d: %w", cfg.Rank, err)
		}
		cfg.Assignment = cfg.View.Assignment
	}
	if cfg.Layout == nil || cfg.Assignment == nil {
		return nil, fmt.Errorf("core: worker %d: WorkerConfig needs Layout and Assignment", cfg.Rank)
	}
	if got, want := ep.ID(), transport.Worker(cfg.Rank); got != want {
		return nil, fmt.Errorf("core: endpoint id %s does not match worker rank %d", got, cfg.Rank)
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = DefaultPipelineDepth
	}
	w := &Worker{
		cfg:     cfg,
		ep:      ep,
		servers: cfg.Assignment.NumServers(),
		waiting: make(map[uint64]*pendingReq),
		done:    make(chan struct{}),
	}
	w.keysPerServer = make([][]keyrange.Key, w.servers)
	for m := 0; m < w.servers; m++ {
		w.keysPerServer[m] = cfg.Assignment.KeysOf(m)
	}
	if cfg.View != nil {
		w.views = clusterview.NewTracker(cfg.View)
		w.adoptedEpoch = cfg.View.Epoch
	}
	w.metrics = newWorkerMetrics(cfg.Telemetry)
	w.startPipes()
	if cfg.Telemetry != nil {
		// Registered after startPipes so the closures only ever see the
		// final pipe slice.
		cfg.Telemetry.GaugeFunc("worker.outstanding", func() int64 {
			return int64(w.Outstanding())
		})
		cfg.Telemetry.GaugeFunc("worker.pipeline_depth", func() int64 {
			var n int64
			for _, p := range w.pipes {
				n += int64(len(p.queue))
			}
			return n
		})
	}
	go w.recvLoop()
	return w, nil
}

// Rank returns the worker's index.
func (w *Worker) Rank() int { return w.cfg.Rank }

// Stats returns a snapshot of the worker's lifecycle counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Retries:  w.retries.Load(),
		Timeouts: w.timeouts.Load(),
		Stale:    w.stale.Load(),
	}
}

// startPipes launches one sender goroutine per server shard. Called from
// the owning goroutine with no operations in flight.
func (w *Worker) startPipes() {
	w.pipeStop = make(chan struct{})
	w.pipes = make([]*serverPipe, w.servers)
	for m := 0; m < w.servers; m++ {
		pipe := &serverPipe{queue: make(chan *pendingReq, w.cfg.PipelineDepth)}
		w.pipes[m] = pipe
		w.pipeWG.Add(1)
		go w.runPipe(pipe, w.pipeStop)
	}
}

// stopPipes winds the sender goroutines down; requests still queued are
// never sent and fail through their timeout (or the recv loop's death).
func (w *Worker) stopPipes() {
	close(w.pipeStop)
	w.pipeWG.Wait()
}

func (w *Worker) runPipe(pipe *serverPipe, stop <-chan struct{}) {
	defer w.pipeWG.Done()
	for {
		select {
		case p := <-pipe.queue:
			if err := transport.SendRetained(w.ep, p.msg); err != nil {
				w.failPending(p, fmt.Errorf("core: worker %d send to %s: %w", w.cfg.Rank, p.msg.To, err))
				continue
			}
			// After this store the pipe never touches p again; completion
			// may recycle it.
			p.sent.Store(true)
		case <-stop:
			return
		}
	}
}

// enqueue hands p to its shard's pipe, blocking (cancellably) when the
// pipeline is full.
func (w *Worker) enqueue(ctx context.Context, m int, p *pendingReq) error {
	select {
	case w.pipes[m].queue <- p:
		return nil
	default:
	}
	select {
	case w.pipes[m].queue <- p:
		return nil
	case <-ctx.Done():
		w.forget(p)
		return fmt.Errorf("core: worker %d enqueue to server %d: %w", w.cfg.Rank, m, ctx.Err())
	case <-w.pipeStop:
		w.forget(p)
		return ErrClosed
	}
}

func (w *Worker) recvLoop() {
	for {
		msg, err := w.ep.Recv()
		if err != nil {
			lost := w.lostErr(err)
			w.mu.Lock()
			w.recvErr = err
			var finish []*pendingReq
			for seq, p := range w.waiting {
				delete(w.waiting, seq)
				if p.discarded {
					finish = append(finish, p)
				} else {
					//lint:ignore lockorder capacity-1 channel, sole send per registration: never blocks
					p.ch <- response{err: lost}
				}
			}
			w.mu.Unlock()
			for _, p := range finish {
				w.finishRequest(p)
			}
			close(w.done)
			return
		}
		switch msg.Type {
		case transport.MsgView:
			// The admin distributes a new cluster view. Adopt it, ack it,
			// and keep receiving — no request is waiting on this.
			w.adoptFromWire(msg.Vals)
			ack := &transport.Message{Type: transport.MsgViewAck, To: msg.From, Seq: msg.Seq}
			_ = w.ep.Send(ack)
			transport.ReleaseReceived(msg)
			continue
		case transport.MsgStaleView:
			// A server fenced one of our requests and embedded the view it
			// is on. Adopt it here (the waiter may be blocked in await and
			// could not), then deliver the rejection so Wait can reissue.
			w.adoptFromWire(msg.Vals)
		}
		if !w.deliver(msg) {
			// A late answer to an abandoned (timed-out) request, or the
			// second copy of a duplicated response: drop it — nobody is
			// waiting for it anymore.
			w.stale.Add(1)
			w.metrics.stale.Inc()
			transport.ReleaseReceived(msg)
		}
	}
}

// deliver routes a response to its pending request. Removal from the
// table and the channel send happen under one critical section, so each
// registration sees at most one delivery (the capacity-1 channel never
// blocks). Discarded (fire-and-forget) requests are completed in place.
func (w *Worker) deliver(msg *transport.Message) bool {
	w.mu.Lock()
	p, ok := w.waiting[msg.Seq]
	if !ok {
		w.mu.Unlock()
		return false
	}
	delete(w.waiting, msg.Seq)
	// Observe the round trip before handing p over: once the response is
	// sent the waiter may recycle p at any moment.
	if !p.start.IsZero() {
		switch p.msg.Type {
		case transport.MsgPush:
			w.metrics.pushRTT.Observe(time.Since(p.start))
		case transport.MsgPull:
			w.metrics.pullRTT.Observe(time.Since(p.start))
		}
	}
	discarded := p.discarded
	if !discarded {
		//lint:ignore lockorder capacity-1 channel, sole send per registration: never blocks
		p.ch <- response{msg: msg}
	}
	w.mu.Unlock()
	if discarded {
		transport.ReleaseReceived(msg)
		w.finishRequest(p)
	}
	return true
}

// failPending resolves p with err (used by pipe senders when the
// transport rejects the request outright).
func (w *Worker) failPending(p *pendingReq, err error) {
	w.mu.Lock()
	cur, ok := w.waiting[p.seq]
	if !ok || cur != p {
		w.mu.Unlock()
		return
	}
	delete(w.waiting, p.seq)
	discarded := p.discarded
	if !discarded {
		//lint:ignore lockorder capacity-1 channel, sole send per registration: never blocks
		p.ch <- response{err: err}
	}
	w.mu.Unlock()
	if discarded {
		w.finishRequest(p)
	}
}

// newRequest builds a pooled request message and its pending entry. keys
// are copied and vals gathered into the message's own (reused) storage —
// a pooled message must never alias shared slices.
func (w *Worker) newRequest(typ transport.MsgType, m int, progress int, delta []float64) *pendingReq {
	seq := w.seq.Add(1)
	msg := transport.NewMessage()
	msg.Type = typ
	msg.To = transport.Server(m)
	msg.Seq = seq
	msg.Progress = int32(progress)
	msg.View = w.viewStamp()
	msg.Keys = append(msg.Keys[:0], w.keysPerServer[m]...)
	if delta != nil {
		if n := w.cfg.PayloadCapacity; n > 0 && cap(msg.Vals) < n {
			msg.Vals = make([]float64, 0, n)
		}
		msg.Vals = kvstore.GatherInto(msg.Vals[:0], w.cfg.Layout, delta, msg.Keys)
	}
	p := w.pooledReq(msg)
	if w.metrics.on {
		p.start = time.Now()
	}
	return p
}

// pooledReq takes a pending entry for msg from the pool; its wait timers
// survive the reuse.
func (w *Worker) pooledReq(msg *transport.Message) *pendingReq {
	p, _ := w.reqPool.Get().(*pendingReq)
	if p == nil {
		p = &pendingReq{ch: make(chan response, 1)}
	}
	p.seq = msg.Seq
	p.msg = msg
	p.sent.Store(false)
	p.discarded = false
	p.start = time.Time{}
	return p
}

// expect registers interest in a response to p's message. It fails fast
// when the receive loop has already died: registering after that point
// would leave a request nothing will ever resolve (the historical hang on
// operations started after connection loss).
func (w *Worker) expect(p *pendingReq) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.recvErr != nil {
		return w.lostErr(w.recvErr)
	}
	w.waiting[p.seq] = p
	return nil
}

// forget abandons an in-flight request so a late response cannot
// accumulate in the waiting table (the historical timeout leak). Any
// response that raced in is drained and counted stale. The request's
// resources are not recycled — the pipe or the peer may still hold them;
// the garbage collector takes over on this rare fault path.
func (w *Worker) forget(p *pendingReq) {
	w.mu.Lock()
	if cur, ok := w.waiting[p.seq]; ok && cur == p {
		delete(w.waiting, p.seq)
	}
	w.mu.Unlock()
	select {
	case r := <-p.ch:
		if r.msg != nil {
			w.stale.Add(1)
			w.metrics.stale.Inc()
			transport.ReleaseReceived(r.msg)
		}
	default:
	}
}

// finishRequest recycles a completed request. Safe only after its single
// delivery was consumed (the table entry is gone, so no further send can
// happen). The request message never escapes the worker — SendRetained
// copies on every transport — so it is recycled as soon as the pipe is
// provably done reading it.
func (w *Worker) finishRequest(p *pendingReq) {
	if !p.sent.Load() {
		// The pipe still holds p (a retransmit was answered before the
		// original send). Leave both to the garbage collector.
		return
	}
	transport.Release(p.msg)
	p.msg = nil
	w.reqPool.Put(p)
}

// viewStamp returns the epoch every outgoing request carries — zero (the
// unfenced sentinel) in legacy static mode. It is the epoch of the view
// whose assignment routes the request, not the newest adopted view: a
// request stamped new but routed by the old assignment would pass the
// fence at a server that no longer owns its keys. Owner goroutine only.
func (w *Worker) viewStamp() uint32 {
	if w.views == nil {
		return 0
	}
	return uint32(w.adoptedEpoch)
}

// adoptFromWire decodes and (epoch permitting) installs a view carried in
// a MsgView broadcast or embedded in a MsgStaleView rejection. Runs on the
// receive loop; the assignment switch is deferred to the owning goroutine
// (maybeAdoptAssignment) because it rebuilds the sender pipelines.
func (w *Worker) adoptFromWire(vals []float64) {
	if w.views == nil || len(vals) == 0 {
		return
	}
	v, _, err := clusterview.Decode(vals)
	if err != nil || !w.views.Advance(v) {
		return
	}
	w.metrics.viewAdoptions.Inc()
	// Redial: rebind every server identity to the address now serving it
	// (a promotion moves a dead rank's address onto its backup's process).
	for m := range v.Servers {
		if v.Servers[m].Addr != "" {
			transport.SetPeerAddr(w.ep, v.Servers[m].ID, v.Servers[m].Addr)
		}
	}
	w.viewDirty.Store(true)
}

// maybeAdoptAssignment switches the owning goroutine onto a newly adopted
// view's key assignment. Only safe at a quiet point — SetAssignment tears
// down and rebuilds the per-server pipelines — so with requests still in
// flight the switch waits for the next operation boundary; until then
// fenced requests are repaired one by one through the reissue path.
func (w *Worker) maybeAdoptAssignment() {
	if w.views == nil || !w.viewDirty.Load() || w.Outstanding() != 0 {
		return
	}
	// Clear the flag before reading the view: an adoption racing in after
	// the clear re-raises it, so the newest view is never stranded.
	w.viewDirty.Store(false)
	v := w.views.View()
	if v.Epoch == w.adoptedEpoch {
		return
	}
	w.adoptedEpoch = v.Epoch
	w.SetAssignment(v.Assignment)
}

func (w *Worker) lostErr(err error) error {
	if err == transport.ErrClosed {
		return transport.ErrClosed
	}
	return fmt.Errorf("core: worker %d connection lost: %w", w.cfg.Rank, err)
}

// await blocks until p's response arrives, ctx is cancelled, the
// connection dies, the retry budget is exhausted, or the worker timeout
// elapses. Unanswered requests are retransmitted per the retry policy;
// abandoned requests are removed from the waiting table.
func (w *Worker) await(ctx context.Context, p *pendingReq) (*transport.Message, error) {
	// A non-nil channel is an armed timer whose tick was not received;
	// the deferred idleTimer stops and drains it for its next Reset.
	var totalC, retryC <-chan time.Time
	defer func() {
		if totalC != nil {
			idleTimer(p.total)
		}
		if retryC != nil {
			idleTimer(p.retry)
		}
	}()
	if w.cfg.Timeout > 0 {
		totalC = armTimer(&p.total, w.cfg.Timeout)
	}
	for attempt := 0; ; attempt++ {
		if w.cfg.Retry.enabled() {
			retryC = armTimer(&p.retry, w.cfg.Retry.delay(attempt))
		}
		select {
		case r := <-p.ch:
			if r.err != nil {
				return nil, r.err
			}
			return r.msg, nil
		case <-ctx.Done():
			w.forget(p)
			return nil, fmt.Errorf("core: worker %d: %w", w.cfg.Rank, ctx.Err())
		case <-retryC:
			retryC = nil // received: expired with an empty channel
			if w.cfg.Retry.MaxAttempts > 0 && attempt+1 >= w.cfg.Retry.MaxAttempts {
				w.forget(p)
				w.timeouts.Add(1)
				w.metrics.timeouts.Inc()
				return nil, fmt.Errorf("core: worker %d: %w (%w) after %d attempts",
					w.cfg.Rank, ErrRetriesExhausted, ErrTimeout, attempt+1)
			}
			// Retransmit under the same seq; the server dedups. Sent
			// directly (not through the pipe): the fault path must not
			// queue behind healthy traffic. A send failure here is not
			// fatal — the endpoint may be mid-way through reconnecting —
			// the next interval retries again.
			w.retries.Add(1)
			w.metrics.retries.Inc()
			_ = transport.SendRetained(w.ep, p.msg)
		case <-totalC:
			totalC = nil
			w.forget(p)
			w.timeouts.Add(1)
			w.metrics.timeouts.Inc()
			return nil, fmt.Errorf("core: worker %d: %w after %v", w.cfg.Rank, ErrTimeout, w.cfg.Timeout)
		}
	}
}

// armTimer starts *t for d, creating it on first use. An idle timer —
// stopped and drained, or expired with its tick received — is reused.
func armTimer(t **time.Timer, d time.Duration) <-chan time.Time {
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	return (*t).C
}

// idleTimer stops an armed timer whose tick was not received. Under go
// 1.22 channel-timer semantics a tick that already fired stays buffered
// and would end the next wait early, so it is drained (Stop reporting
// false means it is in the channel or about to land there).
func idleTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// Handle tracks an outstanding asynchronous operation; resolve it with
// Wait — the paper's kv.wait(kv.sPull(...)) pattern — or release it with
// Discard for fire-and-forget pushes.
type Handle struct {
	worker *Worker
	reqs   []*pendingReq
	// reqsBuf backs reqs for typical shard counts, so a handle is a
	// single allocation.
	reqsBuf [4]*pendingReq
	// params, when non-nil, receives scattered pull responses.
	params []float64
}

// Wait blocks until every per-server response of the operation arrived
// (Algorithm 1's kv.wait). For pulls it also scatters the responses into
// the destination vector — the gather-with-reassembly step: each shard's
// segment lands at its layout offsets as it arrives, so a straggler shard
// only delays its own segment. On the first error the operation's
// remaining requests are abandoned. A handle is spent after Wait returns;
// waiting again is a no-op.
func (h *Handle) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	reqs := h.reqs
	h.reqs = nil
	for i, p := range reqs {
		resp, err := h.worker.await(ctx, p)
		if err != nil {
			for _, q := range reqs[i+1:] {
				h.worker.forget(q)
			}
			return err
		}
		if resp.Type == transport.MsgStaleView {
			// The server fenced this request: a newer view (adopted by the
			// receive loop before delivery) moved its keys. Reissue them,
			// split across the owners the current view names.
			typ, progress := p.msg.Type, p.msg.Progress
			keys := append([]keyrange.Key(nil), p.msg.Keys...)
			vals := append([]float64(nil), p.msg.Vals...)
			transport.ReleaseReceived(resp)
			h.worker.finishRequest(p)
			if err := h.worker.reissueKeys(ctx, typ, progress, keys, vals, h.params, 0); err != nil {
				for _, q := range reqs[i+1:] {
					h.worker.forget(q)
				}
				return err
			}
			continue
		}
		if h.params != nil {
			if err := kvstore.Scatter(h.worker.cfg.Layout, h.params, resp.Keys, resp.Vals); err != nil {
				transport.ReleaseReceived(resp)
				for _, q := range reqs[i+1:] {
					h.worker.forget(q)
				}
				return fmt.Errorf("core: worker %d scatter response: %w", h.worker.cfg.Rank, err)
			}
		}
		transport.ReleaseReceived(resp)
		h.worker.finishRequest(p)
	}
	return nil
}

// Discard marks the operation fire-and-forget: each per-server response
// is absorbed and its resources recycled by the receive loop as it
// arrives, without anyone waiting. Algorithm 1's worker never waits for
// push acknowledgements — Discard is how a training loop says so without
// leaking the in-flight state. The handle is spent afterwards.
func (h *Handle) Discard() {
	w := h.worker
	reqs := h.reqs
	h.reqs = nil
	for _, p := range reqs {
		w.mu.Lock()
		if cur, ok := w.waiting[p.seq]; ok && cur == p {
			p.discarded = true
			w.mu.Unlock()
			continue
		}
		w.mu.Unlock()
		// Already resolved (response raced in, or the request failed):
		// drain and recycle here.
		select {
		case r := <-p.ch:
			transport.ReleaseReceived(r.msg)
		default:
		}
		w.finishRequest(p)
	}
}

// maxReissueDepth bounds chained stale-view rejections within one
// operation: a worker racing a burst of back-to-back view changes
// re-splits its keys at most this many times before surfacing an error.
const maxReissueDepth = 4

// reissueKeys re-sends part of an operation after a stale-view rejection:
// the given keys, regrouped by the owner the *current* view assigns them.
// For pushes, vals holds the original gathered segments in keys order
// (layout KeySize offsets), so the same update lands on the new owners;
// pulls pass an empty payload and scatter responses into params. Each
// reissued request gets a fresh sequence number — safe because the fenced
// original was never applied (the server rejects before dedup-recording a
// fenced request's effect) — and is sent directly, bypassing the pipes: a
// reissue is already on the slow path and must not queue behind healthy
// traffic or race a pipeline rebuild when the assignment switches.
func (w *Worker) reissueKeys(ctx context.Context, typ transport.MsgType, progress int32, keys []keyrange.Key, vals []float64, params []float64, depth int) error {
	if w.views == nil {
		return fmt.Errorf("core: worker %d: stale-view rejection without a view tracker", w.cfg.Rank)
	}
	if depth >= maxReissueDepth {
		return fmt.Errorf("core: worker %d: view changed %d+ times during one operation", w.cfg.Rank, depth)
	}
	w.metrics.reissues.Inc()
	v := w.views.View()
	type group struct {
		keys []keyrange.Key
		vals []float64
	}
	groups := make(map[int]*group)
	off := 0
	for _, k := range keys {
		size := w.cfg.Layout.KeySize(k)
		m := v.Assignment.ServerOf(k)
		g := groups[m]
		if g == nil {
			g = &group{}
			groups[m] = g
		}
		g.keys = append(g.keys, k)
		if len(vals) > 0 {
			g.vals = append(g.vals, vals[off:off+size]...)
		}
		off += size
	}
	for m, g := range groups {
		msg := transport.NewMessage()
		msg.Type = typ
		msg.To = transport.Server(m)
		msg.Seq = w.seq.Add(1)
		msg.Progress = progress
		msg.View = v.EpochStamp()
		msg.Keys = append(msg.Keys[:0], g.keys...)
		msg.Vals = append(msg.Vals[:0], g.vals...)
		p := w.pooledReq(msg)
		if err := w.expect(p); err != nil {
			transport.Release(msg)
			return fmt.Errorf("core: worker %d reissue to server %d: %w", w.cfg.Rank, m, err)
		}
		if err := transport.SendRetained(w.ep, msg); err != nil {
			w.forget(p)
			transport.Release(msg)
			return fmt.Errorf("core: worker %d reissue to server %d: %w", w.cfg.Rank, m, err)
		}
		p.sent.Store(true)
		resp, err := w.await(ctx, p)
		if err != nil {
			return err
		}
		if resp.Type == transport.MsgStaleView {
			// Fenced again — the view moved while we were reissuing. Only
			// this group's keys re-split; g's slices are fresh copies, so
			// they are safe to pass down directly.
			transport.ReleaseReceived(resp)
			w.finishRequest(p)
			if err := w.reissueKeys(ctx, typ, progress, g.keys, g.vals, params, depth+1); err != nil {
				return err
			}
			continue
		}
		if params != nil {
			if err := kvstore.Scatter(w.cfg.Layout, params, resp.Keys, resp.Vals); err != nil {
				transport.ReleaseReceived(resp)
				w.finishRequest(p)
				return fmt.Errorf("core: worker %d scatter reissued response: %w", w.cfg.Rank, err)
			}
		}
		transport.ReleaseReceived(resp)
		w.finishRequest(p)
	}
	return nil
}

// abandon unregisters every request of a partially-sent operation, so a
// failed SPushAsync/SPullAsync does not leave orphan waiting entries.
func (h *Handle) abandon() {
	for _, p := range h.reqs {
		h.worker.forget(p)
	}
	h.reqs = nil
}

// SPushAsync sends the update delta (full model dimensionality) for
// iteration progress — one message per server carrying that server's key
// segments, scattered concurrently through the per-server pipelines — and
// returns as soon as every message is queued. Resolve the handle with
// Wait when you need the delivery guarantee (e.g. before shutting down),
// or Discard it for Algorithm 1's fire-and-forget push (line 4).
func (w *Worker) SPushAsync(ctx context.Context, progress int, delta []float64) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	w.maybeAdoptAssignment()
	w.metrics.pushes.Inc()
	h := &Handle{worker: w}
	h.reqs = h.reqsBuf[:0]
	for m := 0; m < w.servers; m++ {
		if len(w.keysPerServer[m]) == 0 {
			continue
		}
		p := w.newRequest(transport.MsgPush, m, progress, delta)
		if err := w.expect(p); err != nil {
			transport.Release(p.msg)
			h.abandon()
			return nil, fmt.Errorf("core: worker %d push to server %d: %w", w.cfg.Rank, m, err)
		}
		h.reqs = append(h.reqs, p)
		if err := w.enqueue(ctx, m, p); err != nil {
			h.abandon()
			return nil, fmt.Errorf("core: worker %d push to server %d: %w", w.cfg.Rank, m, err)
		}
	}
	return h, nil
}

// SPush is the synchronous form: push and wait for all acknowledgements,
// so a returned nil error means every shard has received (and, per its
// model, applied or dropped) the update.
func (w *Worker) SPush(ctx context.Context, progress int, delta []float64) error {
	h, err := w.SPushAsync(ctx, progress, delta)
	if err != nil {
		return err
	}
	return h.Wait(ctx)
}

// SPullAsync requests the parameters needed for iteration progress+1;
// resolve with Wait, which scatters each shard's response into params.
// Each shard answers independently once its pull condition admits the
// request (possibly via the lazy pull buffer) — the overlap
// synchronization of §III-D: an up-to-date shard answers immediately even
// while another shard still waits for a straggler.
func (w *Worker) SPullAsync(ctx context.Context, progress int, params []float64) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	w.maybeAdoptAssignment()
	w.metrics.pulls.Inc()
	h := &Handle{worker: w, params: params}
	h.reqs = h.reqsBuf[:0]
	for m := 0; m < w.servers; m++ {
		if len(w.keysPerServer[m]) == 0 {
			continue
		}
		p := w.newRequest(transport.MsgPull, m, progress, nil)
		if err := w.expect(p); err != nil {
			transport.Release(p.msg)
			h.abandon()
			return nil, fmt.Errorf("core: worker %d pull from server %d: %w", w.cfg.Rank, m, err)
		}
		h.reqs = append(h.reqs, p)
		if err := w.enqueue(ctx, m, p); err != nil {
			h.abandon()
			return nil, fmt.Errorf("core: worker %d pull from server %d: %w", w.cfg.Rank, m, err)
		}
	}
	return h, nil
}

// SPull is the synchronous form of SPullAsync.
func (w *Worker) SPull(ctx context.Context, progress int, params []float64) error {
	h, err := w.SPullAsync(ctx, progress, params)
	if err != nil {
		return err
	}
	return h.Wait(ctx)
}

// Outstanding returns the number of requests currently in flight —
// bounded by construction: every request is removed on response, on
// timeout, and on connection loss.
func (w *Worker) Outstanding() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.waiting)
}

// Close tears down the worker: the endpoint closes (failing outstanding
// operations through the receive loop) and the per-server sender
// goroutines wind down.
func (w *Worker) Close() error {
	err := w.ep.Close()
	select {
	case <-w.pipeStop:
		// Already stopped.
	default:
		w.stopPipes()
	}
	return err
}
