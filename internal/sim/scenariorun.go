package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/fluentps/fluentps/internal/dataset"
	"github.com/fluentps/fluentps/internal/mathx"
	"github.com/fluentps/fluentps/internal/mlmodel"
	"github.com/fluentps/fluentps/internal/syncmodel"
)

// This file runs one Scenario: a self-contained FluentPS training sim on
// the event engine, built for scale (thousands of workers are O(N log N)
// events total, never O(N²) scans) and for hostility — every hazard in
// hazard.go, a lossy/heterogeneous fabric, worker-side retransmission, and
// primary/backup wave replication with promote-on-kill.
//
// Unlike fluent.go (which simulates the full keyrange/kvstore machinery),
// the scenario runner trains a real workload — linear regression with a
// constant step size, the same substrate as the regret experiments — so a
// cell's regret/throughput score reflects genuine staleness effects, while
// an integer-valued audit value rides every push so exactly-once is
// provable by exact float64 arithmetic (sums stay far below 2^53).

// VTrainPoint is one V_train advance of server 0's lineage.
type VTrainPoint struct {
	T float64 `json:"t"`
	V int     `json:"v"`
}

// SwitchPoint is one adaptive model switch.
type SwitchPoint struct {
	T      float64        `json:"t"`
	Server int            `json:"server"`
	Spec   syncmodel.Spec `json:"spec"`
}

// ScenarioResult is one cell's scorecard.
type ScenarioResult struct {
	Name     string `json:"name"`
	Policy   string `json:"policy"`
	Topology string `json:"topology"`
	Workers  int    `json:"workers"`
	Servers  int    `json:"servers"`
	Replicas int    `json:"replicas"`

	TotalTime float64 `json:"totalTime"`
	// Updates counts gradients applied by server 0's lineage (primary,
	// then its promoted backup); Throughput normalizes by the budget.
	Updates    int     `json:"updates"`
	Throughput float64 `json:"throughput"`
	// Regret is the mean pre-update loss over applied updates — low when
	// updates are both many and fresh — and FinalLoss the mean loss of the
	// final assembled model over the dataset.
	Regret    float64 `json:"regret"`
	FinalLoss float64 `json:"finalLoss"`
	// TimeLoss is the time-averaged dataset loss (1/T)∫loss dt — the area
	// under the loss-vs-time curve of the assembled global model, sampled
	// at scnCheckpoints fixed times across the budget. Unlike Regret it
	// charges a policy for time spent parked at barriers, so it is the
	// wall-clock score the adaptive controller competes on.
	TimeLoss float64 `json:"timeLoss"`

	// Read-tier counters (cells with Readers > 0): answered RO pulls,
	// snapshots published across all lineages, and the worst V_train lag
	// any served snapshot had behind its rank's live clock — the observed
	// staleness bound of the read tier.
	Readers     int `json:"readers,omitempty"`
	ROPulls     int `json:"roPulls,omitempty"`
	ROSnapshots int `json:"roSnapshots,omitempty"`
	ROMaxLagV   int `json:"roMaxLagV,omitempty"`

	DPRs          int `json:"dprs"`
	DroppedPushes int `json:"droppedPushes"`
	Switches      int `json:"switches"`
	Retransmits   int `json:"retransmits"`
	DedupHits     int `json:"dedupHits"`
	LostMsgs      int `json:"lostMsgs"`
	Departed      int `json:"departed"`
	Rejoined      int `json:"rejoined"`
	Promotions    int `json:"promotions"`
	Recoveries    int `json:"recoveries"`

	BytesOnWire int64 `json:"bytesOnWire"`

	// ExactlyOnce is the bit-exact audit verdict: every rank's running
	// audit sum equals the recomputed sum over its applied set, no update
	// was applied twice, and every update a worker saw acknowledged as
	// applied is present in the surviving lineage's applied set.
	ExactlyOnce    bool   `json:"exactlyOnce"`
	ExactlyOnceErr string `json:"exactlyOnceErr,omitempty"`
	// VTrainMonotone: within every lineage V_train only advanced, and at
	// every promotion the restored clock was at least the highest V_train
	// exposed through an acknowledged push (acked ⇒ replicated).
	VTrainMonotone bool `json:"vtrainMonotone"`

	// Determinism witnesses (large; omitted from JSON scorecards).
	FinalParams []float64     `json:"-"`
	VTrainTrace []VTrainPoint `json:"-"`
	SwitchLog   []SwitchPoint `json:"-"`
}

// auditContrib is the integer-valued audit weight of worker w's push for
// iteration i. Deterministic, positive, and small enough that any cell's
// total stays far below 2^53, so float64 sums are exact integers and
// equality is bitwise.
func auditContrib(w, i int) float64 {
	return float64(1 + (w*73856093+i*19349663)%255)
}

// scnWave is one replication unit: the outcome of one push, shipped
// in-order to the backup. The worker's ack is parked until the wave is
// acknowledged (acked ⇒ replicated).
type scnWave struct {
	seq         int
	worker      int
	iter        int
	applied     bool
	delta       []float64
	contrib     float64
	vtrainAfter int
	spec        syncmodel.Spec
	specOK      bool
}

// scnMirror is the backup's view of a rank: everything a promotion needs.
type scnMirror struct {
	params      []float64
	audit       float64
	applied     [][]bool
	appliedIter []int
	ackedIter   []int
	lastApplied []bool
	vtrain      int
	counts      map[int]int
	progress    []int
	spec        syncmodel.Spec
	specOK      bool
	expect      int
	buf         map[int]*scnWave
	ackedSeq    int
}

// scnServer is one shard rank. Promotion mutates it in place (new node,
// state adopted from the mirror), so every closure holding the pointer
// keeps addressing the rank's current incarnation.
type scnServer struct {
	rank  int
	node  int
	alive bool
	dead  bool // permanently killed, awaiting or past promotion

	ctrl      *syncmodel.Controller
	driver    *syncmodel.AdaptiveDriver
	prevStats syncmodel.Stats // stats of pre-promotion controllers

	params []float64
	audit  float64
	// applied[w][i] records that worker w's push for iteration i was
	// applied — the ground-truth set the audit recomputation walks.
	applied     [][]bool
	appliedIter []int
	ackedIter   []int
	lastApplied []bool

	answeredPull []int
	pendingPull  []int
	pendingTok   []int // pull progress parked in the controller, by worker

	replicated bool
	backupNode int
	nextSeq    int
	pending    []*scnWave
	retrying   bool
	mir        *scnMirror

	// Read-tier snapshot: an immutable copy of params published when the
	// rank's V_train has advanced SnapshotEvery ticks since snapPubV. RO
	// pulls are answered from it without touching the sync path.
	snapParams []float64
	snapEpoch  int
	snapVTrain int
	snapPubV   int
}

// scnReader is one read-only client: an open-loop snapshot puller that
// never participates in synchronization.
type scnReader struct {
	rank int
	node int
	rng  *rand.Rand
	next int // round-robin server cursor
}

// scnWorker is one training worker.
type scnWorker struct {
	rank   int
	node   int
	active bool
	done   bool

	iter    int
	w       []float64
	grad    []float64
	curLoss float64

	sampler *computeSampler
	exRNG   *rand.Rand

	pushAcked    []bool
	pullAnswered []bool
	awaiting     int
	sentAt       float64

	// ackedApplied[m] lists iterations rank m acknowledged as applied —
	// each must appear in that rank's surviving applied set.
	ackedApplied [][]int
}

type scnRun struct {
	sc    Scenario
	adapt bool
	base  syncmodel.Model

	eng  *Engine
	net  *network
	data *dataset.LinRegDataset
	lin  mlmodel.LinReg
	off  []int

	workers []*scnWorker
	servers []*scnServer
	readers []*scnReader

	departedNow map[int]bool
	needRetry   bool
	grace       float64
	adaptEvery  float64

	updates    int
	regretSum  float64
	lossCurve  []float64 // dataset loss of the assembled model, per checkpoint
	vtrainHi   []int     // per rank: max V_train exposed via acked pushes
	lastV0     int
	trace      []VTrainPoint
	switchLog  []SwitchPoint
	retransmit int
	dedup      int

	roPulls  int
	roSnaps  int
	roMaxLag int

	monotone  bool
	onceOK    bool
	onceErr   string
	departed  int
	rejoined  int
	promoted  int
	recovered int
	switches  int
}

// RunScenario executes one scenario cell and returns its scorecard.
func RunScenario(sc Scenario) (*ScenarioResult, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	model, adaptive, err := sc.buildModel()
	if err != nil {
		return nil, err
	}
	r := &scnRun{
		sc:          sc,
		adapt:       adaptive,
		base:        model,
		eng:         NewEngine(),
		data:        dataset.LinReg(2048, sc.Dim, sc.Noise, sc.Seed),
		lin:         mlmodel.LinReg{Dim: sc.Dim},
		departedNow: make(map[int]bool),
		needRetry:   sc.LinkLoss > 0 || len(sc.Hazards.Failures) > 0,
		grace:       4*sc.RTO + 5,
		adaptEvery:  sc.AdaptEvery,
		vtrainHi:    make([]int, sc.Servers),
		lastV0:      -1,
		monotone:    true,
		onceOK:      true,
	}
	if r.adapt && r.adaptEvery == 0 {
		r.adaptEvery = 2
	}
	r.setup()
	r.scheduleHazards()
	for _, w := range r.workers {
		r.startIter(w)
	}
	for _, rd := range r.readers {
		r.scheduleRead(rd)
	}
	if r.adapt {
		r.eng.After(r.adaptEvery, r.adaptTick)
	}
	// Loss-curve checkpoints: sample the assembled global model's dataset
	// loss at fixed times so TimeLoss integrates a smooth curve rather
	// than noisy single-example losses.
	step := sc.Budget / scnCheckpoints
	for i := 1; i <= scnCheckpoints; i++ {
		r.eng.After(step*float64(i), func() {
			r.lossCurve = append(r.lossCurve, r.lin.MeanLoss(r.assemble(), r.data))
		})
	}
	total := r.eng.Run()
	return r.finish(total), nil
}

// node-id layout: workers [0,W), primaries [W,W+S), backups [W+S,W+2S),
// readers after every replica.
func (r *scnRun) workerNode(w int) int { return w }
func (r *scnRun) primaryNode(m int) int {
	return r.sc.Workers + m
}
func (r *scnRun) backupNode(m int) int {
	return r.sc.Workers + r.sc.Servers + m
}
func (r *scnRun) readerNode(k int) int {
	return r.sc.Workers + r.sc.Servers*r.sc.Replicas + k
}

func (r *scnRun) setup() {
	sc := r.sc
	nodes := sc.Workers + sc.Servers*sc.Replicas + sc.Readers
	r.net = newNetwork(sc.Net, r.eng, nodes)
	r.installTopology(nodes)

	// Shard m owns the contiguous slice [off[m], off[m+1]) of the weights.
	r.off = make([]int, sc.Servers+1)
	for m := 0; m <= sc.Servers; m++ {
		r.off[m] = m * sc.Dim / sc.Servers
	}

	w0 := make([]float64, sc.Dim) // zero init, like the regret harness

	r.servers = make([]*scnServer, sc.Servers)
	for m := range r.servers {
		seg := r.off[m+1] - r.off[m]
		s := &scnServer{
			rank:         m,
			node:         r.primaryNode(m),
			alive:        true,
			ctrl:         syncmodel.New(sc.Workers, r.base, syncmodel.Lazy, rngFor(sc.Seed, fmt.Sprintf("scn.ctrl.%d", m))),
			params:       append([]float64(nil), w0[r.off[m]:r.off[m+1]]...),
			applied:      newBitset(sc.Workers, sc.IterCap),
			appliedIter:  filled(sc.Workers, -1),
			ackedIter:    filled(sc.Workers, -1),
			lastApplied:  make([]bool, sc.Workers),
			answeredPull: filled(sc.Workers, -1),
			pendingPull:  filled(sc.Workers, -1),
		}
		if r.adapt {
			s.driver = syncmodel.NewAdaptiveDriver(sc.Workers, sc.Adaptive)
		}
		if sc.Replicas >= 2 {
			s.replicated = true
			s.backupNode = r.backupNode(m)
			s.mir = &scnMirror{
				params:      make([]float64, seg),
				applied:     newBitset(sc.Workers, sc.IterCap),
				appliedIter: filled(sc.Workers, -1),
				ackedIter:   filled(sc.Workers, -1),
				lastApplied: make([]bool, sc.Workers),
				counts:      make(map[int]int),
				progress:    filled(sc.Workers, -1),
				buf:         make(map[int]*scnWave),
				ackedSeq:    -1,
			}
		}
		if sc.Readers > 0 {
			r.publishSnapshot(s) // boot snapshot: epoch 1 at V_train 0
		}
		r.servers[m] = s
	}

	r.readers = make([]*scnReader, sc.Readers)
	for k := range r.readers {
		r.readers[k] = &scnReader{
			rank: k,
			node: r.readerNode(k),
			rng:  rngFor(sc.Seed, fmt.Sprintf("scn.reader.%d", k)),
			next: k % sc.Servers, // spread first pulls across ranks
		}
	}

	r.workers = make([]*scnWorker, sc.Workers)
	for n := range r.workers {
		r.workers[n] = &scnWorker{
			rank:         n,
			node:         r.workerNode(n),
			active:       true,
			w:            append([]float64(nil), w0...),
			grad:         make([]float64, sc.Dim),
			sampler:      newComputeSampler(r.computeModel(), sc.Seed, n),
			exRNG:        rngFor(sc.Seed, fmt.Sprintf("scn.ex.%d", n)),
			pushAcked:    make([]bool, sc.Servers),
			pullAnswered: make([]bool, sc.Servers),
			ackedApplied: make([][]int, sc.Servers),
		}
	}
}

// computeModel resolves the cell's compute distribution: the hetero
// topology implies a per-worker speed spread even when the literal leaves
// it zero.
func (r *scnRun) computeModel() ComputeModel {
	cm := r.sc.Compute
	if r.sc.Topology == TopoHetero && cm.SpeedSpread == 0 {
		cm.SpeedSpread = 0.6
	}
	return cm
}

// installTopology shapes the fabric: per-node NIC multipliers under
// hetero, a two-DC split with WAN cross links under geo2, and the cell's
// loss probability on the lossy link set.
func (r *scnRun) installTopology(nodes int) {
	sc := r.sc
	lossRNG := rngFor(sc.Seed, "scn.loss")
	switch sc.Topology {
	case TopoHetero:
		mult := make([]float64, nodes)
		nicRNG := rngFor(sc.Seed, "scn.nic")
		for i := range mult {
			mult[i] = mathx.LogNormal(nicRNG, 1, sc.HeteroNetSpread)
		}
		r.net.setLinks(func(u, v int) LinkClass {
			m := maxf(mult[u], mult[v])
			return LinkClass{
				Latency:   sc.Net.Latency * m,
				Bandwidth: sc.Net.Bandwidth / m,
				Loss:      sc.LinkLoss,
			}
		}, lossRNG)
	case TopoGeo2:
		// Node i lives in DC i%2; backups share their primary's DC so
		// replication stays on the fast fabric.
		dc := make([]int, nodes)
		for i := 0; i < sc.Workers+sc.Servers; i++ {
			dc[i] = i % 2
		}
		for m := 0; m < sc.Servers*(sc.Replicas-1); m++ {
			dc[sc.Workers+sc.Servers+m] = (sc.Workers + m) % 2
		}
		for k := 0; k < sc.Readers; k++ {
			dc[r.readerNode(k)] = k % 2
		}
		r.net.setLinks(func(u, v int) LinkClass {
			if dc[u] == dc[v] {
				return LinkClass{}
			}
			return LinkClass{Latency: sc.WAN.Latency, Bandwidth: sc.WAN.Bandwidth, Loss: maxf(sc.WAN.Loss, sc.LinkLoss)}
		}, lossRNG)
	default:
		if sc.LinkLoss > 0 {
			r.net.setLinks(func(u, v int) LinkClass { return LinkClass{Loss: sc.LinkLoss} }, lossRNG)
		}
	}
}

// ---- hazard scheduling ----

func (r *scnRun) scheduleHazards() {
	hz := r.sc.Hazards
	for _, c := range hz.Churn {
		ev := c
		r.eng.At(ev.LeaveAt, func() { r.workerLeave(ev.Worker) })
		if ev.RejoinAt > 0 {
			r.eng.At(ev.RejoinAt, func() { r.workerRejoin(ev.Worker) })
		}
	}
	for _, f := range hz.Failures {
		ev := f
		r.eng.At(ev.KillAt, func() { r.serverDown(ev.Server, ev.Transient) })
		if ev.Transient {
			r.eng.At(ev.RecoverAt, func() { r.serverUp(ev.Server) })
		} else {
			r.eng.At(ev.KillAt+r.sc.DetectDelay, func() { r.promote(ev.Server) })
		}
	}
}

func (r *scnRun) workerLeave(n int) {
	w := r.workers[n]
	if !w.active || w.done {
		return
	}
	w.active = false
	r.departed++
	r.departedNow[n] = true
	// Servers notice after the detection delay and shrink the quorum.
	r.eng.After(r.sc.DetectDelay, func() {
		if w.active {
			return // rejoined before detection; nothing to undo
		}
		for _, s := range r.servers {
			if !s.alive {
				continue // a promoted incarnation re-applies departures
			}
			_, released := s.ctrl.Depart(n)
			if s.driver != nil {
				s.driver.Depart(n)
			}
			s.pendingPull[n] = -1
			r.noteVTrain(s)
			r.answerAll(s, released)
		}
	})
}

func (r *scnRun) workerRejoin(n int) {
	w := r.workers[n]
	if w.active || w.done || r.eng.Now() >= r.sc.Budget {
		return
	}
	w.active = true
	r.rejoined++
	delete(r.departedNow, n)
	resume := w.iter
	for _, s := range r.servers {
		if !s.alive {
			continue
		}
		if v := s.ctrl.Rejoin(n); v > resume {
			resume = v
		}
		if s.driver != nil {
			s.driver.Rejoin(n)
		}
	}
	w.iter = resume
	// Bootstrap: the rejoiner fetches a parameter snapshot out-of-band
	// (checkpoint read, not simulated traffic) and resumes computing.
	for _, s := range r.servers {
		copy(w.w[r.off[s.rank]:r.off[s.rank+1]], s.params)
	}
	w.awaiting = 0
	r.startIter(w)
}

func (r *scnRun) serverDown(m int, transient bool) {
	s := r.servers[m]
	s.alive = false
	if !transient {
		s.dead = true
	}
}

func (r *scnRun) serverUp(m int) {
	s := r.servers[m]
	if s.dead {
		return
	}
	s.alive = true
	r.recovered++
}

// promote turns rank m's backup into its serving incarnation: state is
// adopted from the mirror (exactly what replication delivered), the sync
// clock restored from the mirrored controller image, currently-departed
// workers re-departed, and the rank's node moves to the backup. Workers
// route by the rank's current node, so their retransmissions land on the
// promoted server after the detection delay.
func (r *scnRun) promote(m int) {
	s := r.servers[m]
	if !s.dead || s.alive {
		return
	}
	mir := s.mir
	r.promoted++

	// Monotonicity across the failover: nothing a worker saw acknowledged
	// may roll back. Acks are parked on replication, so the mirrored clock
	// must be at or past every acknowledged V_train.
	if mir.vtrain < r.vtrainHi[m] {
		r.monotone = false
	}

	s.prevStats = addStats(s.prevStats, s.ctrl.Stats())
	model := r.base
	if mir.specOK {
		if built, err := mir.spec.Build(); err == nil {
			model = built
		}
	}
	ctrl := syncmodel.New(r.sc.Workers, model, syncmodel.Lazy, rngFor(r.sc.Seed, fmt.Sprintf("scn.ctrl.%d.promoted", m)))
	img := syncmodel.ControllerImage{
		VTrain:   mir.vtrain,
		Counts:   make(map[int]int, len(mir.counts)),
		Progress: append([]int(nil), mir.progress...),
	}
	for k, v := range mir.counts {
		img.Counts[k] = v
	}
	if err := ctrl.Restore(img); err != nil {
		panic(fmt.Sprintf("sim: promote restore: %v", err))
	}
	for _, n := range sortedKeys(r.departedNow) {
		ctrl.Depart(n)
	}
	s.ctrl = ctrl
	if r.adapt {
		s.driver = syncmodel.NewAdaptiveDriver(r.sc.Workers, r.sc.Adaptive)
	}
	s.params = mir.params
	s.audit = mir.audit
	s.applied = mir.applied
	s.appliedIter = mir.appliedIter
	s.ackedIter = mir.ackedIter
	s.lastApplied = mir.lastApplied
	s.answeredPull = filled(r.sc.Workers, -1)
	s.pendingPull = filled(r.sc.Workers, -1)
	s.node = s.backupNode
	s.replicated = false
	s.pending = nil
	s.alive = true
	s.dead = false
	if r.sc.Readers > 0 {
		// Fresh boot snapshot from the adopted state: the restored clock may
		// sit below the dead primary's last publish, so the every-N rule
		// alone would never fire again.
		r.publishSnapshot(s)
	}
	r.noteVTrain(s)
}

// ---- worker lifecycle ----

func (r *scnRun) startIter(w *scnWorker) {
	if w.done || !w.active {
		return
	}
	now := r.eng.Now()
	if now >= r.sc.Budget || w.iter >= r.sc.IterCap {
		w.done = true
		return
	}
	dur := w.sampler.sample() * r.sc.Hazards.slowFactor(w.rank, r.sc.Workers, now)
	r.eng.After(dur, func() { r.computeDone(w) })
}

func (r *scnRun) computeDone(w *scnWorker) {
	if w.done || !w.active {
		return
	}
	i := w.exRNG.Intn(len(r.data.X))
	w.curLoss = r.lin.ExampleGrad(w.w, r.data.X[i], r.data.Y[i], w.grad)
	w.awaiting = 2 * r.sc.Servers
	w.sentAt = r.eng.Now()
	for m := range r.servers {
		w.pushAcked[m] = false
		w.pullAnswered[m] = false
	}
	r.sendRound(w, false)
	if r.needRetry {
		r.scheduleRetry(w, w.iter, 1)
	}
}

// sendRound ships worker w's unacknowledged pushes and unanswered pulls
// for its current iteration to each rank's current node.
func (r *scnRun) sendRound(w *scnWorker, isRetry bool) {
	iter := w.iter
	for m, s := range r.servers {
		if !w.pushAcked[m] {
			seg := make([]float64, r.off[m+1]-r.off[m])
			for j := range seg {
				seg[j] = -r.sc.Eta * w.grad[r.off[m]+j]
			}
			contrib := auditContrib(w.rank, iter)
			dst, sv := s.node, s
			if isRetry {
				r.retransmit++
			}
			r.net.send(w.node, dst, msgBytes(len(seg)+1), func() {
				r.handlePush(sv, dst, w, iter, seg, contrib)
			})
		}
		if !w.pullAnswered[m] {
			dst, sv := s.node, s
			if isRetry {
				r.retransmit++
			}
			r.net.send(w.node, dst, ctrlBytes, func() {
				r.handlePull(sv, dst, w, iter)
			})
		}
	}
}

func (r *scnRun) scheduleRetry(w *scnWorker, iter, attempt int) {
	backoff := r.sc.RTO * float64(uint(1)<<uint(min(attempt, 3)))
	r.eng.After(backoff, func() {
		if w.done || !w.active || w.iter != iter || w.awaiting == 0 {
			return
		}
		if r.eng.Now() > r.sc.Budget+r.grace {
			w.done = true // abandon: the run is over and nobody answered
			return
		}
		r.sendRound(w, true)
		r.scheduleRetry(w, iter, attempt+1)
	})
}

func (r *scnRun) maybeFinishIter(w *scnWorker) {
	if w.awaiting != 0 {
		return
	}
	w.iter++
	r.startIter(w)
}

func (r *scnRun) onPushAck(w *scnWorker, m, iter int, applied bool) {
	if w.done || !w.active || iter != w.iter || w.pushAcked[m] {
		return
	}
	w.pushAcked[m] = true
	w.awaiting--
	if applied {
		w.ackedApplied[m] = append(w.ackedApplied[m], iter)
	}
	r.maybeFinishIter(w)
}

func (r *scnRun) onPullAnswer(w *scnWorker, m, iter int, vals []float64) {
	if w.done || !w.active || iter != w.iter || w.pullAnswered[m] {
		return
	}
	copy(w.w[r.off[m]:r.off[m+1]], vals)
	w.pullAnswered[m] = true
	w.awaiting--
	r.maybeFinishIter(w)
}

// ---- server message handling ----

// stale reports whether a message addressed to dst should be swallowed:
// the rank moved (promotion) or its process is down.
func stale(s *scnServer, dst int) bool { return s.node != dst || !s.alive }

func (r *scnRun) handlePush(s *scnServer, dst int, w *scnWorker, iter int, delta []float64, contrib float64) {
	if stale(s, dst) {
		return
	}
	if iter <= s.ackedIter[w.rank] {
		// Retransmit of an already-processed push: re-ack the recorded
		// outcome, never re-apply. In-order blocking means a dup can only
		// be the worker's most recent push. On a replicated rank the ack
		// may still be parked on an unacknowledged wave — stay silent
		// then, or the retransmit would leak an unreplicated ack.
		r.dedup++
		s.prevStats.DedupHits++
		if s.replicated && wavePending(s, w.rank, iter) {
			return
		}
		applied := iter <= s.appliedIter[w.rank] && s.lastApplied[w.rank]
		dst := w.node
		r.net.send(s.node, dst, ctrlBytes, func() { r.onPushAck(w, s.rank, iter, applied) })
		return
	}
	if s.driver != nil {
		s.driver.ObservePush(w.rank, r.eng.Now())
	}
	apply, released := s.ctrl.OnPush(w.rank, iter)
	if apply {
		if s.applied[w.rank][iter] {
			r.fail(fmt.Sprintf("rank %d applied worker %d iter %d twice", s.rank, w.rank, iter))
		} else {
			s.applied[w.rank][iter] = true
		}
		mathx.Axpy(1, delta, s.params)
		s.audit += contrib
		s.appliedIter[w.rank] = iter
		if s.rank == 0 {
			r.updates++
			r.regretSum += w.curLoss
		}
	}
	s.ackedIter[w.rank] = iter
	s.lastApplied[w.rank] = apply
	r.noteVTrain(s)

	if s.replicated {
		// Park the ack on the wave (acked ⇒ replicated); dropped pushes
		// replicate too, so the mirror's dedup state stays complete.
		wave := &scnWave{
			seq: s.nextSeq, worker: w.rank, iter: iter, applied: apply,
			delta: delta, contrib: contrib, vtrainAfter: s.ctrl.VTrain(),
		}
		wave.spec, wave.specOK = s.ctrl.Spec()
		s.nextSeq++
		s.pending = append(s.pending, wave)
		r.sendWave(s, wave)
		if r.needRetry && !s.retrying {
			s.retrying = true
			r.scheduleWaveRetry(s)
		}
	} else {
		r.sendAck(s, w, iter, apply)
	}
	r.answerAll(s, released)
}

func (r *scnRun) sendAck(s *scnServer, w *scnWorker, iter int, applied bool) {
	if s.replicated {
		panic("sim: direct ack from a replicated rank")
	}
	if v := s.ctrl.VTrain(); v > r.vtrainHi[s.rank] {
		r.vtrainHi[s.rank] = v
	}
	dst := w.node
	r.net.send(s.node, dst, ctrlBytes, func() { r.onPushAck(w, s.rank, iter, applied) })
}

func (r *scnRun) handlePull(s *scnServer, dst int, w *scnWorker, iter int) {
	if stale(s, dst) {
		return
	}
	if iter <= s.answeredPull[w.rank] {
		// Already answered (the answer may be in flight or lost):
		// re-answer with current parameters, skipping the controller.
		r.dedup++
		s.prevStats.DedupHits++
		r.answerPull(s, w, iter)
		return
	}
	if s.pendingPull[w.rank] == iter {
		r.dedup++
		s.prevStats.DedupHits++
		return // already parked in the DPR buffer
	}
	if s.ctrl.OnPull(w.rank, iter, w.rank) {
		r.answerPull(s, w, iter)
		return
	}
	s.pendingPull[w.rank] = iter
}

func (r *scnRun) answerPull(s *scnServer, w *scnWorker, iter int) {
	if iter > s.answeredPull[w.rank] {
		s.answeredPull[w.rank] = iter
	}
	s.pendingPull[w.rank] = -1
	if s.driver != nil {
		s.driver.ObservePullAnswer(w.rank, r.eng.Now())
	}
	vals := append([]float64(nil), s.params...)
	dst := w.node
	r.net.send(s.node, dst, msgBytes(len(vals)), func() { r.onPullAnswer(w, s.rank, iter, vals) })
}

// answerAll answers controller-released DPRs in release order.
func (r *scnRun) answerAll(s *scnServer, released []syncmodel.Pull) {
	for _, p := range released {
		w := r.workers[p.Worker]
		if !w.active || w.done {
			s.pendingPull[p.Worker] = -1
			continue
		}
		r.answerPull(s, w, p.Progress)
	}
}

// ---- replication ----

func (r *scnRun) sendWave(s *scnServer, wave *scnWave) {
	dst := s.backupNode
	r.net.send(s.node, dst, msgBytes(len(wave.delta)+8), func() { r.backupApply(s, wave) })
}

// wavePending reports whether worker w's push for iter still awaits its
// replication acknowledgement.
func wavePending(s *scnServer, w, iter int) bool {
	for _, wave := range s.pending {
		if wave.worker == w && wave.iter == iter {
			return true
		}
	}
	return false
}

// scheduleWaveRetry is the primary's go-back-N loop for lossy fabrics:
// while waves await acknowledgement, resend them all every RTO.
func (r *scnRun) scheduleWaveRetry(s *scnServer) {
	r.eng.After(r.sc.RTO, func() {
		if !s.alive || len(s.pending) == 0 || r.eng.Now() > r.sc.Budget+r.grace {
			s.retrying = false
			return
		}
		for _, wave := range s.pending {
			r.retransmit++
			r.sendWave(s, wave)
		}
		r.scheduleWaveRetry(s)
	})
}

func (r *scnRun) backupApply(s *scnServer, wave *scnWave) {
	mir := s.mir
	if mir == nil || s.node == s.backupNode {
		return // already promoted; the wave is from a past life
	}
	if wave.seq < mir.expect {
		r.sendWaveAck(s, mir.expect-1) // dup: re-ack cumulatively
		return
	}
	if wave.seq > mir.expect {
		mir.buf[wave.seq] = wave // out of order: hold for the gap
		return
	}
	r.mirrorApply(s, wave)
	mir.expect++
	for {
		next, ok := mir.buf[mir.expect]
		if !ok {
			break
		}
		delete(mir.buf, mir.expect)
		r.mirrorApply(s, next)
		mir.expect++
	}
	r.sendWaveAck(s, mir.expect-1)
}

func (r *scnRun) mirrorApply(s *scnServer, wave *scnWave) {
	mir := s.mir
	if wave.applied {
		if mir.applied[wave.worker][wave.iter] {
			r.fail(fmt.Sprintf("rank %d mirror applied worker %d iter %d twice", s.rank, wave.worker, wave.iter))
		} else {
			mir.applied[wave.worker][wave.iter] = true
		}
		mathx.Axpy(1, wave.delta, mir.params)
		mir.audit += wave.contrib
		mir.appliedIter[wave.worker] = wave.iter
		if wave.iter >= mir.vtrain {
			mir.counts[wave.iter]++
		}
	}
	mir.ackedIter[wave.worker] = wave.iter
	mir.lastApplied[wave.worker] = wave.applied
	if wave.iter > mir.progress[wave.worker] {
		mir.progress[wave.worker] = wave.iter
	}
	if wave.vtrainAfter < mir.vtrain {
		r.monotone = false // a wave may only move the mirrored clock forward
	}
	for mir.vtrain < wave.vtrainAfter {
		delete(mir.counts, mir.vtrain-1)
		mir.vtrain++
	}
	mir.spec, mir.specOK = wave.spec, wave.specOK
}

func (r *scnRun) sendWaveAck(s *scnServer, seq int) {
	src, dst := s.backupNode, s.node
	r.net.send(src, dst, ctrlBytes, func() { r.onWaveAck(s, dst, seq) })
}

// onWaveAck releases parked worker acks for every wave the backup has now
// safely applied.
func (r *scnRun) onWaveAck(s *scnServer, dst, seq int) {
	if stale(s, dst) || !s.replicated {
		return
	}
	k := 0
	for k < len(s.pending) && s.pending[k].seq <= seq {
		wave := s.pending[k]
		if wave.vtrainAfter > r.vtrainHi[s.rank] {
			r.vtrainHi[s.rank] = wave.vtrainAfter
		}
		w := r.workers[wave.worker]
		dstW, iter, applied := w.node, wave.iter, wave.applied
		r.net.send(s.node, dstW, ctrlBytes, func() { r.onPushAck(w, s.rank, iter, applied) })
		k++
	}
	s.pending = s.pending[k:]
}

// ---- read tier ----

// publishSnapshot re-materializes rank s's snapshot from its current
// parameters — the sim-scale analogue of the server's atomic pointer swap.
func (r *scnRun) publishSnapshot(s *scnServer) {
	s.snapParams = append([]float64(nil), s.params...)
	s.snapEpoch++
	s.snapVTrain = s.ctrl.VTrain()
	s.snapPubV = s.snapVTrain
	r.roSnaps++
}

// maybeSnapshot publishes when the rank's clock has advanced SnapshotEvery
// ticks since the last publish. Called from noteVTrain, which every
// V_train-advancing path already goes through.
func (r *scnRun) maybeSnapshot(s *scnServer) {
	if r.sc.Readers == 0 || r.sc.SnapshotEvery < 0 {
		return
	}
	if s.ctrl.VTrain()-s.snapPubV >= r.sc.SnapshotEvery {
		r.publishSnapshot(s)
	}
}

// scheduleRead is the open-loop reader cadence: a pull every ~ReadEvery
// (exponential), regardless of whether earlier answers arrived. Readers
// are best-effort — a pull landing on a dead or moved rank is simply lost.
func (r *scnRun) scheduleRead(rd *scnReader) {
	think := rd.rng.ExpFloat64() * r.sc.ReadEvery
	r.eng.After(think, func() {
		if r.eng.Now() >= r.sc.Budget {
			return
		}
		s := r.servers[rd.next%r.sc.Servers]
		rd.next++
		dst := s.node
		r.net.send(rd.node, dst, ctrlBytes, func() { r.handleROPull(s, dst, rd) })
		r.scheduleRead(rd)
	})
}

// handleROPull answers a read-only pull from the rank's published
// snapshot: no controller, no pending-pull bookkeeping, no effect on the
// training trajectory.
func (r *scnRun) handleROPull(s *scnServer, dst int, rd *scnReader) {
	if stale(s, dst) {
		return
	}
	if lag := s.ctrl.VTrain() - s.snapVTrain; lag > r.roMaxLag {
		r.roMaxLag = lag
	}
	r.net.send(s.node, rd.node, msgBytes(len(s.snapParams)), func() {
		r.roPulls++
	})
}

// ---- adaptive loop ----

func (r *scnRun) adaptTick() {
	now := r.eng.Now()
	if now > r.sc.Budget {
		return
	}
	for _, s := range r.servers {
		if !s.alive || s.driver == nil {
			continue
		}
		released, switched := s.driver.ReEvaluate(s.ctrl, now)
		if switched {
			r.switches++
			spec, _ := s.ctrl.Spec()
			r.switchLog = append(r.switchLog, SwitchPoint{T: now, Server: s.rank, Spec: spec})
		}
		r.noteVTrain(s)
		r.answerAll(s, released)
	}
	r.eng.After(r.adaptEvery, r.adaptTick)
}

// ---- bookkeeping ----

// noteVTrain records server 0's V_train advances for the determinism
// witness trace. Within a lineage the clock must never step back. Every
// clock-advancing path runs through here, so it doubles as the read
// tier's publish point.
func (r *scnRun) noteVTrain(s *scnServer) {
	r.maybeSnapshot(s)
	if s.rank != 0 {
		return
	}
	v := s.ctrl.VTrain()
	if len(r.trace) > 0 && v < r.lastV0 && !s.dead {
		// A promotion may legitimately restore an earlier (but fully
		// acknowledged) clock; anything else is a monotonicity bug.
		if v < r.vtrainHi[0] {
			r.monotone = false
		}
	}
	if v != r.lastV0 {
		r.trace = append(r.trace, VTrainPoint{T: r.eng.Now(), V: v})
		r.lastV0 = v
	}
}

func (r *scnRun) fail(msg string) {
	r.onceOK = false
	if r.onceErr == "" {
		r.onceErr = msg
	}
}

// audit verifies the exactly-once ledger of every rank's surviving
// incarnation: the running audit sum must bit-equal the sum recomputed
// from the applied set (contributions are integer-valued, so float64
// addition is exact), and every update a worker saw acknowledged as
// applied must be present in that set.
func (r *scnRun) audit() {
	for _, s := range r.servers {
		var sum float64
		for w := range s.applied {
			for i, ok := range s.applied[w] {
				if ok {
					sum += auditContrib(w, i)
				}
			}
		}
		if sum != s.audit {
			r.fail(fmt.Sprintf("rank %d audit sum %v != applied-set sum %v", s.rank, s.audit, sum))
		}
	}
	for _, w := range r.workers {
		for m, iters := range w.ackedApplied {
			for _, i := range iters {
				if !r.servers[m].applied[w.rank][i] {
					r.fail(fmt.Sprintf("worker %d iter %d acked as applied by rank %d but missing from its applied set", w.rank, i, m))
				}
			}
		}
	}
}

// scnCheckpoints is the number of loss-curve samples per run.
const scnCheckpoints = 32

// assemble copies every rank's current primary-lineage slice into one
// global parameter vector.
func (r *scnRun) assemble() []float64 {
	out := make([]float64, r.sc.Dim)
	for _, s := range r.servers {
		copy(out[r.off[s.rank]:r.off[s.rank+1]], s.params)
	}
	return out
}

func (r *scnRun) finish(total float64) *ScenarioResult {
	sc := r.sc
	r.audit()
	final := r.assemble()
	res := &ScenarioResult{
		Name: sc.Name, Policy: sc.Policy, Topology: sc.Topology,
		Workers: sc.Workers, Servers: sc.Servers, Replicas: sc.Replicas,
		TotalTime:   total,
		Updates:     r.updates,
		Throughput:  float64(r.updates) / sc.Budget,
		FinalLoss:   r.lin.MeanLoss(final, r.data),
		Switches:    r.switches,
		Readers:     sc.Readers,
		ROPulls:     r.roPulls,
		ROSnapshots: r.roSnaps,
		ROMaxLagV:   r.roMaxLag,
		Retransmits: r.retransmit,
		DedupHits:   r.dedup,
		LostMsgs:    int(r.net.drops),
		Departed:    r.departed,
		Rejoined:    r.rejoined,
		Promotions:  r.promoted,
		Recoveries:  r.recovered,
		BytesOnWire: r.bytes(),
		ExactlyOnce: r.onceOK, ExactlyOnceErr: r.onceErr,
		VTrainMonotone: r.monotone,
		FinalParams:    final,
		VTrainTrace:    r.trace,
		SwitchLog:      r.switchLog,
	}
	if r.updates > 0 {
		res.Regret = r.regretSum / float64(r.updates)
	}
	if len(r.lossCurve) > 0 {
		sum := 0.0
		for _, l := range r.lossCurve {
			sum += l
		}
		res.TimeLoss = sum / float64(len(r.lossCurve))
	}
	for _, s := range r.servers {
		st := addStats(s.prevStats, s.ctrl.Stats())
		res.DPRs += st.DPRs
		res.DroppedPushes += st.DroppedPushes
	}
	return res
}

func (r *scnRun) bytes() int64 {
	var total int64
	for _, b := range r.net.txBytes {
		total += b
	}
	return total
}

// ---- small helpers ----

func filled(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func newBitset(n, m int) [][]bool {
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, m)
	}
	return out
}

func addStats(a, b syncmodel.Stats) syncmodel.Stats {
	a.Pulls += b.Pulls
	a.Pushes += b.Pushes
	a.DPRs += b.DPRs
	a.DroppedPushes += b.DroppedPushes
	a.Advances += b.Advances
	a.DedupHits += b.DedupHits
	return a
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
