// Epoch-based immutable parameter snapshots — the RCU read tier of the
// shard.
//
// A Snapshot is a frozen view of the shard at one V_train cut: every
// segment observed atomically at the same moment, published by a single
// atomic pointer swap, and never mutated afterwards. Read-only pulls
// (MsgPullRO) are served from the current snapshot without touching any
// stripe lock, so a fan-out of read-mostly clients costs the apply path
// nothing.
//
// Each snapshot is one contiguous array holding every segment in key
// order — the full-shard payload itself, so Flat returns it and Get and
// Gather slice into it. A publish is two allocations (the Snapshot and
// its array) and one copy of the shard. The key list and key→offset
// index are shared across epochs until the shard's key set changes.
// When to publish is the owner's call: the server keeps only its boot
// snapshot until a reader appears (core/roserver.go).
//
// Concurrency contract: PublishSnapshot has the same quiescence
// requirement as GatherShard (no concurrent appliers — the server
// publishes from its apply goroutine at wave barriers). ROSnapshot and
// every Snapshot method are safe from any goroutine at any time.
package kvstore

import "github.com/fluentps/fluentps/internal/keyrange"

// Snapshot is one immutable epoch of the shard. All fields and all
// reachable slices are frozen at publish time; readers may alias them
// freely (including across the wire on in-process transports).
type Snapshot struct {
	// Epoch numbers publishes monotonically from 1. The wire carries its
	// low 32 bits (Message.View) as the staleness stamp; epochs within
	// one server lifetime do not wrap.
	Epoch uint64
	// VTrain is the shard's training clock at the cut — every segment in
	// the snapshot reflects exactly the waves applied up to this tick.
	VTrain int

	idx  *snapIndex
	vals []float64
}

// snapIndex locates each key's segment in a snapshot's array; epochs
// share it until the shard's key generation moves.
type snapIndex struct {
	gen    uint64
	layout *keyrange.Layout
	keys   []keyrange.Key
	off    map[keyrange.Key]int
	dim    int
}

// Keys returns the snapshot's owned keys in ascending order. The slice
// is frozen; callers must not mutate it.
func (sn *Snapshot) Keys() []keyrange.Key { return sn.idx.keys }

// Dim returns the total number of scalars in the snapshot.
func (sn *Snapshot) Dim() int { return len(sn.vals) }

// Get returns key k's frozen segment, a slice of the snapshot's array.
// Callers may alias it but must not write through it.
func (sn *Snapshot) Get(k keyrange.Key) ([]float64, bool) {
	off, ok := sn.idx.off[k]
	if !ok {
		return nil, false
	}
	end := off + sn.idx.layout.KeySize(k)
	return sn.vals[off:end:end], true
}

// Gather appends the snapshot's segments for keys (in the given order)
// to dst — the snapshot-side counterpart of Shard.GatherShard, callable
// lock-free from any goroutine.
func (sn *Snapshot) Gather(dst []float64, keys []keyrange.Key) ([]float64, error) {
	for _, k := range keys {
		seg, ok := sn.Get(k)
		if !ok {
			return nil, unknownKey("snapshot-gather", k)
		}
		dst = append(dst, seg...)
	}
	return dst, nil
}

// Flat returns the full-shard payload — the snapshot's array itself,
// every segment in key order. The slice is immutable.
func (sn *Snapshot) Flat() []float64 { return sn.vals }

// ROSnapshot returns the current published snapshot, or nil if none has
// been published yet. Lock-free; safe from any goroutine.
func (s *Shard) ROSnapshot() *Snapshot { return s.snap.Load() }

// KeysChangedSincePublish reports whether the shard's key set moved
// (AddKey/RemoveKey) since the current snapshot was cut, or nothing was
// published yet. Requires quiescence, like PublishSnapshot.
func (s *Shard) KeysChangedSincePublish() bool {
	sn := s.snap.Load()
	return sn == nil || sn.idx.gen != s.keyGen
}

// PublishSnapshot copies the shard's segments into a fresh array as the
// next epoch and installs it with one atomic pointer swap. Requires
// quiescence (no concurrent appliers), like GatherShard.
func (s *Shard) PublishSnapshot(vtrain int) *Snapshot {
	prev := s.snap.Load()
	sn := &Snapshot{Epoch: 1, VTrain: vtrain}
	if prev != nil {
		sn.Epoch = prev.Epoch + 1
	}
	if prev != nil && prev.idx.gen == s.keyGen {
		sn.idx = prev.idx
	} else {
		sn.idx = s.buildSnapIndex()
	}
	sn.vals = make([]float64, sn.idx.dim)
	off := 0
	for _, k := range sn.idx.keys {
		off += copy(sn.vals[off:], s.stripeFor(k).data[k])
	}
	s.snap.Store(sn)
	return sn
}

// buildSnapIndex lays the shard's current keys out back to back.
func (s *Shard) buildSnapIndex() *snapIndex {
	idx := &snapIndex{
		gen:    s.keyGen,
		layout: s.layout,
		keys:   append([]keyrange.Key(nil), s.keys...),
		off:    make(map[keyrange.Key]int, len(s.keys)),
	}
	for _, k := range idx.keys {
		idx.off[k] = idx.dim
		idx.dim += s.layout.KeySize(k)
	}
	return idx
}
