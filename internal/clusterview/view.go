// Package clusterview makes cluster membership a first-class, versioned
// value. A View is an immutable snapshot of who is in the cluster (members
// with roles, addresses, and liveness states), which server owns which
// keys (the keyrange assignment), and the replication factor — stamped
// with a monotonically increasing Epoch.
//
// Every node consumes membership through a View instead of positional
// flag-derived address lists: servers fence requests routed by an older
// epoch, workers adopt newer views pushed to them (or returned in a
// stale-view rejection) and re-route. Transitions — join, drain,
// promotion after a failure — are pure functions producing the next view
// with Epoch+1; the admin distributes them, and the epoch ordering makes
// installation idempotent and replay-safe.
package clusterview

import (
	"fmt"
	"sync"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/transport"
)

// MemberState is a member's liveness in a view.
type MemberState uint8

// Member states.
const (
	// Active members serve traffic.
	Active MemberState = iota
	// Down members left the cluster (drained or declared dead). A down
	// server's identity may still be served by another host after a
	// promotion — routing follows Addr/Host, not State alone.
	Down
)

// String names the member state.
func (s MemberState) String() string {
	switch s {
	case Active:
		return "active"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Member is one node of the cluster as a view records it.
type Member struct {
	ID   transport.NodeID
	Addr string
	// State is the member's liveness.
	State MemberState
	// Host is the server rank whose process serves this identity. It
	// equals the member's own rank until a promotion rebinds a dead
	// primary onto its backup's process. Worker members ignore it.
	Host int
}

// View is one immutable epoch of cluster membership. Fields must not be
// mutated after the view is shared; transitions build a new view.
type View struct {
	// Epoch orders views totally; higher wins. Epoch 1 is the bootstrap
	// view derived from flags (or a test harness).
	Epoch uint64
	// Replicas is the shard replication factor: 1 keeps every shard on
	// its primary only, 2 adds a ring-successor backup.
	Replicas int

	SchedulerAddr string
	Servers       []Member
	Workers       []Member

	// Assignment maps every key to its primary server rank.
	Assignment *keyrange.Assignment
}

// Bootstrap builds the epoch-1 view flags describe: all members active,
// each hosted by itself.
func Bootstrap(schedulerAddr string, serverAddrs, workerAddrs []string, assign *keyrange.Assignment, replicas int) *View {
	v := &View{
		Epoch:         1,
		Replicas:      replicas,
		SchedulerAddr: schedulerAddr,
		Servers:       make([]Member, len(serverAddrs)),
		Workers:       make([]Member, len(workerAddrs)),
		Assignment:    assign,
	}
	if v.Replicas < 1 {
		v.Replicas = 1
	}
	for m, addr := range serverAddrs {
		v.Servers[m] = Member{ID: transport.Server(m), Addr: addr, Host: m}
	}
	for n, addr := range workerAddrs {
		v.Workers[n] = Member{ID: transport.Worker(n), Addr: addr, Host: n}
	}
	return v
}

// NumServers returns the number of server ranks the view knows (including
// down ones — ranks are never recycled within a job).
func (v *View) NumServers() int { return len(v.Servers) }

// NumWorkers returns the number of worker ranks.
func (v *View) NumWorkers() int { return len(v.Workers) }

// EpochStamp returns the epoch as the uint32 that request headers carry.
func (v *View) EpochStamp() uint32 { return uint32(v.Epoch) }

// ServerAddr returns the address serving server rank m — the rebound one
// after a promotion.
func (v *View) ServerAddr(m int) string { return v.Servers[m].Addr }

// ActiveServers lists the ranks currently serving traffic.
func (v *View) ActiveServers() []int {
	out := make([]int, 0, len(v.Servers))
	for m := range v.Servers {
		if v.Servers[m].State == Active {
			out = append(out, m)
		}
	}
	return out
}

// Book returns the address book the view implies, for dialing transports.
func (v *View) Book() map[transport.NodeID]string {
	book := make(map[transport.NodeID]string, len(v.Servers)+len(v.Workers)+1)
	if v.SchedulerAddr != "" {
		book[transport.Scheduler()] = v.SchedulerAddr
	}
	for _, m := range v.Servers {
		if m.Addr != "" {
			book[m.ID] = m.Addr
		}
	}
	for _, m := range v.Workers {
		if m.Addr != "" {
			book[m.ID] = m.Addr
		}
	}
	return book
}

// BackupOf returns the server rank holding the backup replica of rank m's
// shard, or -1 when the view replicates nothing (Replicas < 2) or no
// eligible backup exists. The backup is m's ring successor among active
// servers hosted by a different process, so a primary and its backup
// never colocate (see keyrange.BackupOf for the ring).
func (v *View) BackupOf(m int) int {
	if v.Replicas < 2 || m < 0 || m >= len(v.Servers) {
		return -1
	}
	eligible := make([]bool, len(v.Servers))
	for j := range v.Servers {
		eligible[j] = v.Servers[j].State == Active &&
			v.Servers[j].Host != v.Servers[m].Host &&
			(v.Servers[j].Addr == "" || v.Servers[j].Addr != v.Servers[m].Addr)
	}
	return keyrange.BackupOf(m, eligible)
}

// Clone returns a deep copy whose slices are safe to mutate.
func (v *View) Clone() *View {
	c := *v
	c.Servers = append([]Member(nil), v.Servers...)
	c.Workers = append([]Member(nil), v.Workers...)
	return &c
}

// WithJoined returns the next view after a new server at addr joins: one
// more active rank, keys rebalanced onto it move-minimally
// (keyrange.ScaleUp — existing servers only lose keys). The new member's
// rank is returned. A layout over a different key space than the view's
// assignment is refused.
func (v *View) WithJoined(addr string, layout *keyrange.Layout) (*View, int, error) {
	if err := v.Validate(layout); err != nil {
		return nil, 0, err
	}
	next := v.Clone()
	rank := len(next.Servers)
	next.Servers = append(next.Servers, Member{ID: transport.Server(rank), Addr: addr, Host: rank})
	assign, err := keyrange.ScaleUp(v.Assignment, layout, rank+1)
	if err != nil {
		return nil, 0, err
	}
	next.Assignment = assign
	next.Epoch++
	return next, rank, nil
}

// WithDrained returns the next view after server rank leaves gracefully:
// its keys rebalanced move-minimally onto the remaining active servers
// (keyrange.Rebalance), the member marked down. A layout over a different
// key space than the view's assignment is refused.
func (v *View) WithDrained(rank int, layout *keyrange.Layout) (*View, error) {
	if rank < 0 || rank >= len(v.Servers) || v.Servers[rank].State != Active {
		return nil, fmt.Errorf("clusterview: cannot drain rank %d", rank)
	}
	if err := v.Validate(layout); err != nil {
		return nil, err
	}
	alive := make([]bool, len(v.Servers))
	active := 0
	for m := range v.Servers {
		alive[m] = v.Servers[m].State == Active && m != rank
		if alive[m] {
			active++
		}
	}
	if active == 0 {
		return nil, fmt.Errorf("clusterview: draining rank %d would leave no servers", rank)
	}
	assign, err := keyrange.Rebalance(v.Assignment, layout, alive)
	if err != nil {
		return nil, err
	}
	next := v.Clone()
	next.Servers[rank].State = Down
	next.Assignment = assign
	next.Epoch++
	return next, nil
}

// WithPromoted returns the next view after dead's shard fails over to its
// backup: the assignment is unchanged (the whole key set keeps its rank),
// only the rank's address rebinds to the backup's process. Workers keep
// their routing tables and simply redial.
func (v *View) WithPromoted(dead int) (*View, error) {
	backup := v.BackupOf(dead)
	if backup < 0 {
		return nil, fmt.Errorf("clusterview: no backup for rank %d (replicas=%d)", dead, v.Replicas)
	}
	next := v.Clone()
	next.Servers[dead].Addr = v.Servers[backup].Addr
	next.Servers[dead].Host = v.Servers[backup].Host
	next.Epoch++
	return next, nil
}

// Validate checks internal consistency against the key layout.
func (v *View) Validate(layout *keyrange.Layout) error {
	switch {
	case v == nil:
		return fmt.Errorf("clusterview: nil view")
	case v.Epoch == 0:
		return fmt.Errorf("clusterview: epoch 0 is reserved for unfenced traffic")
	case v.Assignment == nil:
		return fmt.Errorf("clusterview: view has no assignment")
	case v.Assignment.NumServers() > len(v.Servers):
		return fmt.Errorf("clusterview: assignment spans %d servers, view has %d",
			v.Assignment.NumServers(), len(v.Servers))
	case layout != nil && v.Assignment.NumKeys() != layout.NumKeys():
		return fmt.Errorf("clusterview: assignment covers %d keys, layout has %d",
			v.Assignment.NumKeys(), layout.NumKeys())
	case len(v.Workers) == 0:
		return fmt.Errorf("clusterview: view has no workers")
	}
	for m, mem := range v.Servers {
		if mem.ID != transport.Server(m) {
			return fmt.Errorf("clusterview: server slot %d holds id %v", m, mem.ID)
		}
		if mem.Host < 0 || mem.Host >= len(v.Servers) {
			return fmt.Errorf("clusterview: server %d hosted by out-of-range rank %d", m, mem.Host)
		}
	}
	for n, mem := range v.Workers {
		if mem.ID != transport.Worker(n) {
			return fmt.Errorf("clusterview: worker slot %d holds id %v", n, mem.ID)
		}
	}
	return nil
}

// Tracker holds a node's current view and enforces epoch ordering on
// updates. It is safe for concurrent use (receive loops advance it while
// request paths read it).
type Tracker struct {
	mu sync.Mutex
	v  *View
}

// NewTracker starts a tracker at v.
func NewTracker(v *View) *Tracker { return &Tracker{v: v} }

// View returns the current view (immutable; do not modify).
func (t *Tracker) View() *View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.v
}

// Epoch returns the current view's epoch.
func (t *Tracker) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.v.Epoch
}

// Advance installs v if it is strictly newer than the current view and
// reports whether it was installed — stale and duplicate views are
// rejected, making delivery order and replays harmless.
func (t *Tracker) Advance(v *View) bool {
	if v == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.v != nil && v.Epoch <= t.v.Epoch {
		return false
	}
	t.v = v
	return true
}
