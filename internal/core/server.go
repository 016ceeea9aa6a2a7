// Package core is the FluentPS system itself: parameter-server nodes,
// workers with sPush/sPull operations, and a liveness scheduler, wired
// over any transport (in-process channels or TCP).
//
// The design follows the paper directly:
//
//   - Every server owns one parameter shard and one condition-aware
//     synchronization controller (internal/syncmodel — Algorithm 1). There
//     is no central synchronization scheduler; servers advance their
//     shards' V_train independently, which is what makes push and pull
//     processes of different shards overlap (§III-D).
//   - Workers push scaled updates and pull fresh parameters per shard,
//     tagging both with their progress. A pull blocks the worker only for
//     the shards whose pull condition rejects it.
//   - The scheduler only monitors liveness and confirms membership; it is
//     not on the synchronization path.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fluentps/fluentps/internal/clusterview"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/kvstore"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// ServerConfig configures one FluentPS server node.
type ServerConfig struct {
	// Rank is this server's index in [0, NumServers).
	Rank int
	// NumWorkers is N, the number of workers pushing to this server.
	NumWorkers int
	// Layout and Assignment define the global key space and which keys
	// this server owns.
	Layout     *keyrange.Layout
	Assignment *keyrange.Assignment
	// Model and Drain select the shard's synchronization behaviour. The
	// zero Model is invalid; use syncmodel constructors (BSP, SSP, …).
	Model syncmodel.Model
	Drain syncmodel.DrainPolicy
	// Init, if non-nil, initializes the shard's parameter segments (all
	// servers and workers must agree on w0).
	Init func(k keyrange.Key, seg []float64)
	// Seed drives probabilistic pull conditions deterministically.
	Seed int64
	// DedupWindow is the number of recent request seqs remembered per
	// peer for duplicate suppression: a retransmitted or duplicated push
	// inside the window is re-acked but not re-applied, a duplicated
	// pull is re-answered (or left to its pending buffered request).
	// Zero selects DefaultDedupWindow; negative disables deduplication.
	DedupWindow int
	// ApplyQueueDepth is the buffer between the server's receive stage
	// and its apply stage (Run decodes and applies concurrently); zero
	// selects DefaultApplyQueueDepth.
	ApplyQueueDepth int
	// ApplyWorkers sets the apply-stage parallelism. 1 (or negative)
	// keeps the serial apply loop: one goroutine owns controller and
	// shard, messages are handled one at a time. Values above 1 enable
	// the wave-batched apply engine (applyengine.go): queued pushes and
	// pulls are drained in waves, same-key gradients coalesce into fused
	// batches, and per-stripe batches are applied by this many pool
	// goroutines. Zero derives the count from GOMAXPROCS. The count is
	// capped at the stripe count.
	ApplyWorkers int
	// ApplyStripes sets how many independently locked stripes the shard
	// is divided into (rounded up to a power of two, clamped to
	// [1, kvstore.MaxStripes]). Zero derives it from the resolved worker
	// count: 1 stripe for a serial server, 4× the workers otherwise (so
	// stripe collisions between concurrently applied batches stay rare).
	ApplyStripes int
	// Telemetry, when non-nil, receives the server's runtime metrics
	// (see core/telemetry.go for the schema). One registry per node; nil
	// (telemetry.Nop) disables collection — hot-path instruments become
	// nil-safe no-ops and no timestamps are taken.
	Telemetry *telemetry.Registry
	// AdaptEvery is the period of the adaptive sync controller's
	// re-evaluation tick (zero selects DefaultAdaptEvery). The tick always
	// runs but is a no-op unless the shard runs a KindAdaptive model —
	// configured at start or installed later via SetCondition.
	AdaptEvery time.Duration
	// Adaptive supplies the adaptive policy's knobs (hysteresis, spread
	// thresholds, AllowDrop, EWMA factor). Its staleness triple is ignored:
	// the bounds always come from the adaptive model's spec, which is the
	// single wire-visible source of truth.
	Adaptive syncmodel.AdaptiveConfig
	// View is the epoch-versioned cluster membership this server starts
	// from. When set it overrides Assignment (the view's assignment wins)
	// and defaults NumWorkers; requests stamped with an older epoch are
	// rejected with the current view. Nil synthesizes an epoch-1 bootstrap
	// view from Assignment/NumWorkers, with fencing effectively off for
	// unstamped traffic — existing static deployments run unchanged.
	View *clusterview.View
	// OpenEndpoint, when non-nil, lets this server bind additional node
	// identities on its transport — a promotion boots the dead rank's
	// shard in this process and needs an endpoint with that rank's id.
	// Nil disables hosting promotions (this server can still be a backup
	// donor for key transfer and serve fenced traffic).
	OpenEndpoint func(id transport.NodeID) (transport.Endpoint, error)
	// SnapshotEvery is the read-tier publish cadence in V_train ticks.
	// Until the first reader appears only the boot snapshot exists; from
	// then on a new immutable parameter snapshot (kvstore.Snapshot) is
	// published at the first apply-wave boundary after V_train has
	// advanced this much, and on the AdaptEvery tick whenever it moved.
	// Zero selects 1 (every wave); negative freezes the epoch-1 boot
	// snapshot (RO pulls still work, at unbounded staleness).
	SnapshotEvery int
	// ReaderPool sizes the goroutine pool serving read-only pulls
	// (MsgPullRO) from the current snapshot, off the apply path. Zero
	// selects DefaultReaderPool; negative disables the pool — RO pulls
	// are then served inline by the apply loop (still lock-free, but
	// serialized behind training traffic).
	ReaderPool int
}

// DefaultAdaptEvery is the adaptive re-evaluation period used when
// ServerConfig.AdaptEvery is zero.
const DefaultAdaptEvery = 250 * time.Millisecond

// DefaultApplyQueueDepth is the receive→apply buffer used when
// ServerConfig.ApplyQueueDepth is zero.
const DefaultApplyQueueDepth = 64

// applyWorkers resolves ServerConfig.ApplyWorkers: zero means
// GOMAXPROCS, anything below one means serial.
func (cfg *ServerConfig) applyWorkers() int {
	w := cfg.ApplyWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// applyStripes resolves ServerConfig.ApplyStripes: an explicit count is
// passed through (kvstore normalizes it); zero derives from the worker
// count — one stripe for a serial server, 4× workers for the engine.
func (cfg *ServerConfig) applyStripes() int {
	if cfg.ApplyStripes > 0 {
		return cfg.ApplyStripes
	}
	w := cfg.applyWorkers()
	if w == 1 {
		return 1
	}
	return 4 * w
}

// DefaultDedupWindow is the per-peer duplicate-suppression window used
// when ServerConfig.DedupWindow is zero. It must exceed the number of
// requests a worker can have unacknowledged plus the retransmission
// horizon; with synchronous workers that is a handful, so the default is
// generous.
const DefaultDedupWindow = 4096

// Server is one FluentPS parameter-server node. Run processes messages
// until the endpoint closes or a shutdown message arrives.
type Server struct {
	cfg   ServerConfig
	ep    transport.Endpoint
	shard *kvstore.Shard
	ctrl  *syncmodel.Controller
	keys  []keyrange.Key

	mu    sync.Mutex
	stats syncmodel.Stats

	// metrics holds the server's telemetry instruments (all no-ops when
	// cfg.Telemetry is nil); see core/telemetry.go for the schema.
	metrics serverMetrics

	// dedup remembers each peer's recent request seqs so transport-level
	// retries and duplicated frames never double-apply a push (see
	// ServerConfig.DedupWindow). Touched only by the Run goroutine.
	dedup     map[transport.NodeID]*dedupWindow
	dedupHits int

	// adapt drives the runtime-adaptive sync controller when the shard
	// runs a KindAdaptive model; nil otherwise. Touched only by the apply
	// goroutine (adaptive.go).
	adapt *syncmodel.AdaptiveDriver
	// started anchors the monotonic second clock the adaptive driver's
	// inter-push forecasts use.
	started time.Time
	// switches counts sync-model kind changes (admin- or adaptive-driven).
	switches int

	// reb tracks an in-progress elastic rebalance (rebalance.go).
	reb *rebalanceState

	// views tracks the installed cluster view; epoch caches its stamp for
	// the request fence. Both are owned by the apply goroutine (epoch is
	// read on every push/pull, so it must not take the tracker's lock).
	views *clusterview.Tracker
	epoch uint32
	// repl is the primary side of shard replication; replicas the backup
	// side, one passive replica per primary this server backs
	// (replication.go).
	repl     *replState
	replicas map[int]*replicaState
	// mig tracks keys owed to this server after a view change; earlyMig
	// buffers transfers that outran their view, held parks data-plane
	// requests touching in-flight keys (view.go).
	mig      *viewMigration
	earlyMig []*transport.Message
	held     []*transport.Message
	// subs are endpoints of shards promoted into this process; closed when
	// Run returns.
	subs []transport.Endpoint

	// Read-optimized serving tier (roserver.go): roQueue feeds the reader
	// pool, roStop ends it, lastPub is the V_train tick of the last
	// published snapshot (owned by the apply goroutine), roServed backs
	// ShardState.ROPulls from whichever goroutine served the pull. roAwake
	// latches for good on the first reader — a MsgPullRO on any path or a
	// HandleRO attach; until then only the boot snapshot exists.
	roQueue  chan roReq
	roStop   chan struct{}
	roWG     sync.WaitGroup
	roAwake  atomic.Bool
	lastPub  int
	roServed atomic.Uint64

	// debugLastVTrain backs the fluentdebug V_train monotonicity
	// assertion (assert.go); unused in release builds.
	debugLastVTrain int
}

// dedupOutcome records how a remembered request was resolved, which
// decides how its duplicate is answered.
type dedupOutcome uint8

const (
	// dedupPushDone: the push was consumed (applied, or dropped by a
	// drop-stragglers model); a duplicate is re-acked only.
	dedupPushDone dedupOutcome = iota
	// dedupPullPending: the pull sits in the DPR buffer; a duplicate is
	// ignored — the buffered original will be answered on release.
	dedupPullPending
	// dedupPullAnswered: the pull was answered; a duplicate (a retry
	// whose response was lost) is re-answered with current parameters.
	dedupPullAnswered
)

// dedupWindow is a bounded FIFO memory of one peer's request seqs.
type dedupWindow struct {
	seen  map[uint64]dedupOutcome
	order []uint64
	cap   int
}

func newDedupWindow(cap int) *dedupWindow {
	return &dedupWindow{seen: make(map[uint64]dedupOutcome), cap: cap}
}

func (d *dedupWindow) lookup(seq uint64) (dedupOutcome, bool) {
	out, ok := d.seen[seq]
	return out, ok
}

func (d *dedupWindow) record(seq uint64, out dedupOutcome) {
	if _, ok := d.seen[seq]; ok {
		d.seen[seq] = out
		return
	}
	if len(d.order) >= d.cap {
		evict := d.order[0]
		d.order = d.order[1:]
		delete(d.seen, evict)
	}
	d.seen[seq] = out
	d.order = append(d.order, seq)
}

// dedupLookup reports whether (from, seq) was seen before and with what
// outcome.
func (s *Server) dedupLookup(from transport.NodeID, seq uint64) (dedupOutcome, bool) {
	if s.dedup == nil {
		return 0, false
	}
	w, ok := s.dedup[from]
	if !ok {
		return 0, false
	}
	return w.lookup(seq)
}

// dedupRecord remembers (from, seq) with the given outcome, evicting the
// peer's oldest remembered seq when the window is full.
func (s *Server) dedupRecord(from transport.NodeID, seq uint64, out dedupOutcome) {
	if s.dedup == nil {
		return
	}
	w, ok := s.dedup[from]
	if !ok {
		w = newDedupWindow(s.dedupCap())
		s.dedup[from] = w
	}
	w.record(seq, out)
}

func (s *Server) dedupCap() int {
	if s.cfg.DedupWindow > 0 {
		return s.cfg.DedupWindow
	}
	return DefaultDedupWindow
}

// DedupHits returns how many duplicate requests the server has absorbed.
func (s *Server) DedupHits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.DedupHits
}

// SaveShard checkpoints the server's parameter shard to w. Call it only
// while the server is quiesced (no in-flight pushes or pulls) — e.g.
// between training phases or after workers stopped; the snapshot contains
// the shard segments and update counters, restorable via
// NewServerFromCheckpoint.
func (s *Server) SaveShard(w io.Writer) error { return s.shard.Save(w) }

// NewServerFromCheckpoint builds a replacement server whose shard state
// comes from a checkpoint written by SaveShard, instead of cfg.Init. The
// checkpoint's keys must match the assignment's keys for cfg.Rank. The
// synchronization controller starts fresh; resume training from a
// quiesced round boundary (workers restart their progress counters).
func NewServerFromCheckpoint(ep transport.Endpoint, cfg ServerConfig, r io.Reader) (*Server, error) {
	srv, err := NewServer(ep, cfg)
	if err != nil {
		return nil, err
	}
	shard, err := kvstore.LoadStripedShard(r, cfg.Layout, cfg.applyStripes())
	if err != nil {
		return nil, err
	}
	want := cfg.Assignment.KeysOf(cfg.Rank)
	got := shard.Keys()
	if len(want) != len(got) {
		return nil, fmt.Errorf("core: checkpoint has %d keys, assignment gives server %d %d",
			len(got), cfg.Rank, len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return nil, fmt.Errorf("core: checkpoint key %d does not match assignment key %d", got[i], want[i])
		}
	}
	srv.shard = shard
	// The boot snapshot published by NewServer belongs to the discarded
	// shard; the restored one needs its own epoch 1.
	srv.metrics.snapshotEpoch.Set(int64(shard.PublishSnapshot(0).Epoch))
	return srv, nil
}

// NewServer builds a server over the given endpoint. The endpoint's id
// must be transport.Server(cfg.Rank).
func NewServer(ep transport.Endpoint, cfg ServerConfig) (*Server, error) {
	if cfg.Model.Pull == nil || cfg.Model.Push == nil {
		return nil, fmt.Errorf("core: server %d has no synchronization model", cfg.Rank)
	}
	view := cfg.View
	if view != nil {
		if err := view.Validate(cfg.Layout); err != nil {
			return nil, fmt.Errorf("core: server %d: %w", cfg.Rank, err)
		}
		cfg.Assignment = view.Assignment
		if cfg.NumWorkers == 0 {
			cfg.NumWorkers = view.NumWorkers()
		}
	}
	if cfg.NumWorkers <= 0 {
		return nil, fmt.Errorf("core: server %d configured with %d workers", cfg.Rank, cfg.NumWorkers)
	}
	if got, want := ep.ID(), transport.Server(cfg.Rank); got != want {
		return nil, fmt.Errorf("core: endpoint id %s does not match server rank %d", got, cfg.Rank)
	}
	keys := cfg.Assignment.KeysOf(cfg.Rank)
	s := &Server{
		cfg:   cfg,
		ep:    ep,
		shard: kvstore.NewStripedShard(cfg.Layout, keys, cfg.Init, cfg.applyStripes()),
		ctrl: syncmodel.New(cfg.NumWorkers, cfg.Model, cfg.Drain,
			rand.New(rand.NewSource(cfg.Seed^int64(cfg.Rank+1)))),
		keys:    keys,
		started: time.Now(),
	}
	s.metrics = newServerMetrics(cfg.Telemetry)
	if spec, ok := syncmodel.SpecOf(cfg.Model); ok && spec.Kind == syncmodel.KindAdaptive {
		s.installAdaptive(spec)
	}
	if cfg.DedupWindow >= 0 {
		s.dedup = make(map[transport.NodeID]*dedupWindow)
	}
	if view == nil {
		// Static deployments get a synthesized epoch-1 view: fencing is
		// inert for their unstamped traffic, and no member has an address
		// or backup to speak of.
		view = clusterview.Bootstrap("",
			make([]string, cfg.Assignment.NumServers()),
			make([]string, cfg.NumWorkers),
			cfg.Assignment, 1)
	}
	s.views = clusterview.NewTracker(view)
	s.epoch = view.EpochStamp()
	s.metrics.viewEpoch.Set(int64(view.Epoch))
	s.repl = &replState{backup: view.BackupOf(cfg.Rank), needSnapshot: true}
	s.replicas = make(map[int]*replicaState)
	// The boot snapshot (epoch 1, V_train 0) exists before Run: the RO
	// path never has to fall back to the live shard, and HandleRO streams
	// attached before Run still get answers. It is the only snapshot until
	// the first reader wakes the tier.
	boot := s.shard.PublishSnapshot(0)
	s.metrics.snapshotEpoch.Set(int64(boot.Epoch))
	if cfg.ReaderPool >= 0 {
		s.roQueue = make(chan roReq, roQueueDepth(cfg.readerPool()))
		s.roStop = make(chan struct{})
	}
	return s, nil
}

// Keys returns the keys this server owns.
func (s *Server) Keys() []keyrange.Key { return s.keys }

// Stats returns a snapshot of the shard's synchronization counters. It is
// safe to call concurrently with Run; the snapshot is refreshed after
// every handled message.
func (s *Server) Stats() syncmodel.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Server) snapshotStats() {
	s.assertVTrainMonotonic()
	st := s.ctrl.Stats()
	st.DedupHits = s.dedupHits
	s.mu.Lock()
	s.stats = st
	s.mu.Unlock()
	if s.metrics.on {
		// Gauges are refreshed after every handled message, so a scrape
		// between messages sees the controller's latest view without ever
		// touching controller state off the apply goroutine.
		minP, maxP := s.ctrl.MinProgress(), s.ctrl.MaxProgress()
		s.metrics.vtrain.Set(int64(s.ctrl.VTrain()))
		s.metrics.minProgress.Set(int64(minP))
		s.metrics.maxProgress.Set(int64(maxP))
		s.metrics.skew.Set(int64(maxP - minP))
		s.metrics.dprDepth.Set(int64(s.ctrl.Buffered()))
		if spec, ok := s.ctrl.Spec(); ok {
			s.metrics.syncStaleness.Set(int64(stalenessOf(spec)))
		}
	}
}

// Run processes requests until the endpoint closes or MsgShutdown
// arrives. It runs as a two-stage pipeline: a receive goroutine drains
// the endpoint (on TCP that is where frames are decoded) into a bounded
// queue, and the calling goroutine applies — so decoding the next batch
// of messages overlaps with shard/controller work instead of serializing
// behind it. The apply stage remains the single owner of controller and
// dedup state, preserving the per-peer FIFO the dedup windows rely on;
// with ApplyWorkers > 1 it additionally fans gradient batches out to a
// pool over the striped shard (see applyengine.go), staying sole owner
// of everything else.
func (s *Server) Run() error {
	depth := s.cfg.ApplyQueueDepth
	if depth <= 0 {
		depth = DefaultApplyQueueDepth
	}
	queue := make(chan queuedMsg, depth)
	if s.metrics.on {
		s.cfg.Telemetry.GaugeFunc("server.apply_queue_depth", func() int64 {
			return int64(len(queue))
		})
	}
	// The reader pool serves MsgPullRO from published snapshots, fully off
	// the apply path; it drains nothing the apply stage needs, so it stops
	// last (after the receive goroutine can no longer submit to it).
	if s.roQueue != nil {
		for i := 0; i < s.cfg.readerPool(); i++ {
			s.roWG.Add(1)
			go s.roWorker()
		}
		defer func() {
			close(s.roStop)
			s.roWG.Wait()
		}()
	}
	recvErr := make(chan error, 1)
	applyDone := make(chan struct{})
	go func() {
		for {
			msg, err := s.ep.Recv()
			if err != nil {
				recvErr <- err
				close(queue)
				return
			}
			if msg.Type == transport.MsgPullRO && s.roQueue != nil {
				// Read-only pulls bypass the apply queue entirely: the
				// reader pool answers them from the current snapshot, and
				// a full pool queue sheds them right here with a
				// retry-after instead of growing anything.
				s.roAwake.Store(true)
				s.submitRO(msg, s.ep)
				continue
			}
			q := queuedMsg{msg: msg}
			if s.metrics.on {
				q.at = time.Now()
			}
			select {
			case queue <- q:
			case <-applyDone:
				// The apply stage returned (shutdown or handler error);
				// drop the message and stop feeding.
				transport.ReleaseReceived(msg)
				return
			}
		}
	}()
	defer close(applyDone)
	defer func() {
		// Shards promoted into this process live exactly as long as it does.
		for _, sub := range s.subs {
			_ = sub.Close()
		}
	}()
	// A backup configured at startup gets its first snapshot before any
	// wave can reference it.
	if err := s.replTick(); err != nil {
		return err
	}
	var (
		shutdown bool
		err      error
	)
	if workers := s.cfg.applyWorkers(); workers > 1 {
		shutdown, err = s.runBatched(queue, workers)
	} else {
		shutdown, err = s.runSerial(queue)
	}
	if err != nil {
		if errors.Is(err, transport.ErrClosed) {
			// The endpoint was closed under a mid-flight handler (a kill
			// or harness teardown); that is a shutdown, not a fault.
			return nil
		}
		return err
	}
	if shutdown {
		return nil
	}
	// The queue closed: the receive stage hit an endpoint error.
	err = <-recvErr
	if err == transport.ErrClosed {
		return nil
	}
	return fmt.Errorf("core: server %d recv: %w", s.cfg.Rank, err)
}

// runSerial is Run's apply stage when ApplyWorkers ≤ 1: the original
// one-message-at-a-time loop, plus the periodic adaptive re-evaluation
// tick (a no-op unless the shard runs an adaptive model).
func (s *Server) runSerial(queue chan queuedMsg) (shutdown bool, err error) {
	tick := time.NewTicker(s.adaptEvery())
	defer tick.Stop()
	for {
		select {
		case q, ok := <-queue:
			if !ok {
				return false, nil
			}
			if s.metrics.on {
				s.metrics.applyWait.Observe(time.Since(q.at))
			}
			shutdown, err := s.apply(q.msg)
			if err != nil || shutdown {
				return shutdown, err
			}
			s.maybePublishSnapshot()
		case <-tick.C:
			if err := s.housekeep(); err != nil {
				return false, err
			}
		}
	}
}

// housekeep is the apply loops' periodic tick, between messages or waves:
// adaptive re-evaluation, the replication clock, and a read-tier publish
// whenever V_train moved, so a reader arriving after training went idle
// still gets the final parameters.
func (s *Server) housekeep() error {
	if err := s.reevaluate(); err != nil {
		return err
	}
	if err := s.replTick(); err != nil {
		return err
	}
	s.publishAfter(1)
	return nil
}

// queuedMsg is one message in the receive→apply queue, stamped with its
// enqueue time when telemetry is on (the apply-queue-wait histogram).
type queuedMsg struct {
	msg *transport.Message
	at  time.Time
}

// apply dispatches one message. Receiver-owned pooled messages (TCP
// frames, handed-off pointers) are recycled after their handler returns —
// except MsgMigrate when handleMigrate buffers it until its rebalance or
// view arrives, and pushes/pulls held while their keys are in flight
// during a migration.
func (s *Server) apply(msg *transport.Message) (shutdown bool, err error) {
	switch msg.Type {
	case transport.MsgPush:
		if s.holdForMigration(msg) {
			s.holdMsg(msg)
			return false, nil
		}
		err = s.handlePush(msg)
		transport.ReleaseReceived(msg)
		if err == nil {
			s.snapshotStats()
		}
	case transport.MsgPull:
		if s.holdForMigration(msg) {
			s.holdMsg(msg)
			return false, nil
		}
		err = s.handlePull(msg)
		transport.ReleaseReceived(msg)
		if err == nil {
			s.snapshotStats()
		}
	case transport.MsgSetCond:
		err = s.handleSetCond(msg)
		transport.ReleaseReceived(msg)
		if err == nil {
			s.snapshotStats()
		}
	case transport.MsgRebalance:
		err = s.handleRebalance(msg)
		transport.ReleaseReceived(msg)
	case transport.MsgMigrate:
		var retained bool
		retained, err = s.handleMigrate(msg)
		if !retained {
			transport.ReleaseReceived(msg)
		}
	case transport.MsgView:
		err = s.handleView(msg)
		transport.ReleaseReceived(msg)
	case transport.MsgViewReq:
		err = s.handleViewReq(msg)
		transport.ReleaseReceived(msg)
	case transport.MsgReplicate:
		err = s.handleReplicate(msg)
		transport.ReleaseReceived(msg)
	case transport.MsgReplicateAck:
		err = s.handleReplicateAck(msg)
		transport.ReleaseReceived(msg)
	case transport.MsgPromote:
		err = s.handlePromote(msg)
		transport.ReleaseReceived(msg)
	case transport.MsgStats:
		err = s.handleStats(msg)
		transport.ReleaseReceived(msg)
	case transport.MsgPullRO:
		// Reached only when the reader pool is disabled (the receive
		// stage intercepts MsgPullRO otherwise): served inline from the
		// current snapshot — lock-free, but serialized with training.
		s.roAwake.Store(true)
		err = s.handlePullRO(msg, s.ep)
		transport.ReleaseReceived(msg)
	case transport.MsgShutdown:
		transport.ReleaseReceived(msg)
		return true, nil
	default:
		// Heartbeats and stray acks are ignored by servers.
		transport.ReleaseReceived(msg)
	}
	return false, err
}

// ack sends a pooled acknowledgement of the given type for (to, seq).
func (s *Server) ack(typ transport.MsgType, to transport.NodeID, seq uint64) error {
	a := transport.NewMessage()
	a.Type = typ
	a.To = to
	a.Seq = seq
	return transport.SendOwned(s.ep, a)
}

func (s *Server) handlePush(msg *transport.Message) error {
	if _, dup := s.dedupLookup(msg.From, msg.Seq); dup {
		// A retransmission (or a duplicated frame) of a push already
		// consumed: re-ack so the retrying worker unblocks, but never
		// re-apply the gradient — at-least-once delivery plus this
		// window yields effectively-once application.
		s.dedupHits++
		s.metrics.dedupPushHits.Inc()
		// The re-ack parks like the original if its wave is still pending
		// replication: an ack must always mean "replicated".
		if err := s.ackOrPark(msg.From, msg.Seq); err != nil {
			return fmt.Errorf("core: server %d re-ack push: %w", s.cfg.Rank, err)
		}
		return nil
	}
	if s.staleFenced(msg) {
		return s.rejectStale(msg)
	}
	worker := int(msg.From.Rank)
	progress := int(msg.Progress)
	if s.adapt != nil {
		s.adapt.ObservePush(worker, s.now())
	}
	advancesBefore := s.debugAdvances()
	apply, released := s.ctrl.OnPush(worker, progress)
	s.assertDrainImpliesAdvance(len(released), advancesBefore)
	if apply {
		// Algorithm 1 line 15: w ← w + g/N, before draining pulls.
		if err := s.shard.ApplyGradPayload(msg.Keys, msg.Vals, 1/float64(s.cfg.NumWorkers)); err != nil {
			return fmt.Errorf("core: server %d apply push from %s: %w", s.cfg.Rank, msg.From, err)
		}
		s.metrics.pushesApplied.Inc()
	} else {
		s.metrics.pushesDropped.Inc()
	}
	// A dropped push is consumed too: its duplicate must not be offered
	// to the controller a second time.
	s.dedupRecord(msg.From, msg.Seq, dedupPushDone)
	if s.replActive() {
		// Acked ⇒ replicated: the ack is parked on the wave carrying this
		// push's effects and released by the backup's acknowledgement.
		if err := s.replicatePush(msg, apply); err != nil {
			return err
		}
	} else if err := s.ack(transport.MsgPushAck, msg.From, msg.Seq); err != nil {
		return fmt.Errorf("core: server %d ack push: %w", s.cfg.Rank, err)
	}
	return s.releasePulls(released)
}

// releasePulls answers the pulls a push, a model switch, or an adaptive
// decision drained from the DPR buffer.
func (s *Server) releasePulls(released []syncmodel.Pull) error {
	for _, rel := range released {
		if err := s.respondPull(s.drained(rel)); err != nil {
			return err
		}
	}
	return nil
}

// drained accounts one pull released from the DPR buffer — the staleness
// assertion, the drain counter, its buffered time — and returns its token.
func (s *Server) drained(rel syncmodel.Pull) pullToken {
	s.assertSSPStaleness(rel.Progress)
	tok := rel.Token.(pullToken)
	s.metrics.dprDrained.Inc()
	if s.metrics.on && !tok.at.IsZero() {
		s.metrics.dprWait.Observe(time.Since(tok.at))
	}
	return tok
}

// pullToken carries what the server needs to answer a delayed pull later.
type pullToken struct {
	from transport.NodeID
	seq  uint64
	keys []keyrange.Key
	// at is the buffering timestamp feeding the time-in-DPR-buffer
	// histogram; zero when telemetry is off or the pull never buffered.
	at time.Time
}

func (s *Server) handlePull(msg *transport.Message) error {
	tok, answer, err := s.takePull(msg)
	if err != nil || !answer {
		return err // rejected, or buffered as a DPR answered by a later push
	}
	return s.respondPull(tok)
}

// takePull runs a pull's control logic for either apply loop: the dedup
// window, the view fence, the pull condition. answer reports that tok is
// owed a response now; its keys alias msg, so the caller responds before
// msg is recycled.
func (s *Server) takePull(msg *transport.Message) (tok pullToken, answer bool, err error) {
	if out, dup := s.dedupLookup(msg.From, msg.Seq); dup {
		s.dedupHits++
		s.metrics.dedupPullHits.Inc()
		// An answered original's response was lost in flight: answering
		// again with current parameters is safe — pulls do not mutate. A
		// duplicate of a buffered DPR is ignored: the original is answered
		// on release, and registering the copy would answer the worker
		// twice and corrupt the DPR accounting.
		return pullToken{from: msg.From, seq: msg.Seq, keys: msg.Keys}, out == dedupPullAnswered, nil
	}
	if s.staleFenced(msg) {
		return pullToken{}, false, s.rejectStale(msg)
	}
	tok, answer = s.admitPull(msg)
	return tok, answer, nil
}

// admitPull runs the pull condition for a fresh, unfenced pull in either
// apply loop. A pull answered at once comes back ready, allocation-free,
// with a token aliasing msg.Keys (answered before msg is recycled); only
// a pull buffered as a DPR gets its keys copied and its token boxed.
func (s *Server) admitPull(msg *transport.Message) (tok pullToken, ready bool) {
	worker := int(msg.From.Rank)
	progress := int(msg.Progress)
	s.metrics.pulls.Inc()
	tok = pullToken{from: msg.From, seq: msg.Seq, keys: msg.Keys}
	if s.ctrl.AdmitPull(worker, progress) {
		s.assertSSPStaleness(progress)
		s.dedupRecord(msg.From, msg.Seq, dedupPullAnswered)
		return tok, true
	}
	if msg.ReceiverOwned() {
		// The DPR token outlives the recycled message. (Sender-owned ones
		// are held by the worker until after any DPR release.)
		tok.keys = append([]keyrange.Key(nil), msg.Keys...)
	}
	if s.metrics.on {
		tok.at = time.Now()
	}
	s.ctrl.BufferPull(worker, progress, tok)
	s.dedupRecord(msg.From, msg.Seq, dedupPullPending)
	s.metrics.dprBuffered.Inc()
	return tok, false
}

// handleSetCond swaps the shard's synchronization model at runtime (the
// paper's flexibility claim: a model is just a pair of conditions, so
// changing it is a message, not a restart). State — V_train, counts, the
// DPR buffer — is preserved; pulls the new conditions admit are answered
// immediately.
func (s *Server) handleSetCond(msg *transport.Message) error {
	spec, err := syncmodel.DecodeSpec(msg.Vals)
	if err != nil {
		return fmt.Errorf("core: server %d set-cond: %w", s.cfg.Rank, err)
	}
	model, err := spec.Build()
	if err != nil {
		return fmt.Errorf("core: server %d set-cond: %w", s.cfg.Rank, err)
	}
	prev, _ := s.ctrl.Spec()
	released := s.ctrl.SetModel(model)
	if spec.Kind != prev.Kind {
		s.switches++
		s.metrics.syncSwitches.Inc()
	}
	if spec.Kind == syncmodel.KindAdaptive {
		// Installing an adaptive model (re)starts the adaptive loop with
		// the spec's bounds; the driver's forecast history restarts too.
		s.installAdaptive(spec)
	} else {
		// An explicit admin switch to a fixed model is an override: the
		// adaptive loop must stop second-guessing it.
		s.adapt = nil
	}
	// The switch already happened; an unreachable admin must not take
	// the server down with it.
	_ = s.ack(transport.MsgSetCondAck, msg.From, msg.Seq)
	return s.releasePulls(released)
}

// SetCondition asks a server to switch its synchronization model at
// runtime and waits (cancellably) for the acknowledgement. Call it from
// an endpoint that is not concurrently used by a Worker's receive loop
// (e.g. an admin endpoint). On cancellation the receive keeps draining in
// the background until the endpoint closes or the ack arrives.
func SetCondition(ctx context.Context, ep transport.Endpoint, server int, spec syncmodel.Spec) error {
	if _, err := spec.Build(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	msg := &transport.Message{
		Type: transport.MsgSetCond,
		To:   transport.Server(server),
		Seq:  1,
		Vals: spec.Encode(),
	}
	if err := ep.Send(msg); err != nil {
		return err
	}
	resp, err := recvCtx(ctx, ep)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("core: set-cond on server %d: %w", server, err)
		}
		return err
	}
	typ := resp.Type
	transport.ReleaseReceived(resp)
	if typ != transport.MsgSetCondAck {
		return fmt.Errorf("core: unexpected %s in reply to set-cond", typ)
	}
	return nil
}

func (s *Server) respondPull(tok pullToken) error {
	// Released DPRs flip to "answered" so a duplicate arriving later is
	// re-answered rather than silently ignored.
	s.dedupRecord(tok.from, tok.seq, dedupPullAnswered)
	if s.adapt != nil {
		// The answer starts the worker's next compute window; the driver
		// pairs it with the following push to forecast iteration time
		// without counting blocking. Out-of-range ranks (admin) are ignored.
		s.adapt.ObservePullAnswer(int(tok.from.Rank), s.now())
	}
	keys := tok.keys
	if len(keys) == 0 {
		keys = s.keys
	}
	resp := transport.NewMessage()
	resp.Type = transport.MsgPullResp
	resp.To = tok.from
	resp.Seq = tok.seq
	resp.Keys = append(resp.Keys[:0], keys...)
	vals, err := s.shard.GatherShard(resp.Vals[:0], keys)
	if err != nil {
		transport.Release(resp)
		return fmt.Errorf("core: server %d gather for %s: %w", s.cfg.Rank, tok.from, err)
	}
	resp.Vals = vals
	if err := transport.SendOwned(s.ep, resp); err != nil {
		return fmt.Errorf("core: server %d respond pull: %w", s.cfg.Rank, err)
	}
	return nil
}
