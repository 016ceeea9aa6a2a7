// Package kvstore holds parameter state for servers and workers.
//
// A Shard is one server's slice of the global model: the segments of the
// flat parameter vector belonging to the keys assigned to that server, with
// per-key update counters. Internally a shard is divided into K
// independently locked sub-stripes (keyed by a hash of the key), so a
// server's apply workers can update disjoint stripes concurrently while
// hot keys in the same stripe serialize on one short lock. Single-owner
// callers (the simulator, pslite) construct with NewShard (one stripe) and
// never notice the locks.
//
// Concurrency contract:
//
//   - ApplyGrad, ApplyBatch, Set, and Updates lock the key's stripe and
//     may be called concurrently from any number of goroutines.
//   - Structural and bulk operations — AddKey, RemoveKey, Keys, Segment,
//     ReadInto, GatherShard, Save, Dim — require quiescence: no concurrent
//     appliers. The server guarantees this by draining its apply workers
//     (a completion-channel barrier) before gathering, checkpointing, or
//     rebalancing.
//
// Gather and Scatter convert between a worker's flat model vector and the
// concatenated per-key payloads that travel in push/pull messages.
package kvstore

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/mathx"
)

// MaxStripes caps the stripe count; beyond this the per-stripe maps stop
// paying for themselves.
const MaxStripes = 1024

// Shard stores the parameter segments for one server's keys, partitioned
// into independently locked stripes.
type Shard struct {
	layout *keyrange.Layout
	keys   []keyrange.Key

	stripes []shardStripe
	// shift maps a key hash to its stripe: stripe = hash(k) >> shift.
	// len(stripes) is always a power of two, so shift = 32 - log2(K); the
	// top hash bits pick the stripe (a one-stripe shard shifts by 32,
	// which Go defines as zero).
	shift uint

	// snap is the current published read-only snapshot (see snapshot.go);
	// nil until the first PublishSnapshot. keyGen counts key-set changes,
	// so a publish knows when the snapshot key index must be rebuilt.
	snap   atomic.Pointer[Snapshot]
	keyGen uint64
}

// shardStripe is one lock domain: a subset of the shard's keys with their
// segments and update counters.
type shardStripe struct {
	mu      sync.Mutex
	data    map[keyrange.Key][]float64
	updates map[keyrange.Key]uint64
}

// stripeHash spreads dense keys across stripes (Fibonacci hashing: the
// high bits of k * 2^32/φ are well mixed even for sequential keys).
func stripeHash(k keyrange.Key) uint32 { return uint32(k) * 0x9E3779B1 }

// normStripes rounds n up to a power of two in [1, MaxStripes].
func normStripes(n int) int {
	if n <= 1 {
		return 1
	}
	if n > MaxStripes {
		n = MaxStripes
	}
	return 1 << bits.Len(uint(n-1))
}

// NewShard creates a single-stripe shard for the given keys — the
// single-owner construction used by the simulator and tests. If init is
// non-nil it is called once per key to fill the segment's initial values
// (e.g. to copy w0); otherwise segments start at zero.
func NewShard(layout *keyrange.Layout, keys []keyrange.Key, init func(k keyrange.Key, seg []float64)) *Shard {
	return NewStripedShard(layout, keys, init, 1)
}

// NewStripedShard creates a shard whose keys are partitioned into
// `stripes` independently locked sub-stripes (rounded up to a power of
// two, clamped to [1, MaxStripes]). Servers size this from their apply
// worker count.
func NewStripedShard(layout *keyrange.Layout, keys []keyrange.Key, init func(k keyrange.Key, seg []float64), stripes int) *Shard {
	s := newEmptyShard(layout, stripes)
	s.keys = append(s.keys, keys...)
	for _, k := range s.keys {
		seg := make([]float64, layout.KeySize(k))
		if init != nil {
			init(k, seg)
		}
		sp := s.stripeFor(k)
		sp.data[k] = seg
	}
	return s
}

func newEmptyShard(layout *keyrange.Layout, stripes int) *Shard {
	n := normStripes(stripes)
	s := &Shard{
		layout:  layout,
		stripes: make([]shardStripe, n),
		shift:   uint(32 - bits.Len(uint(n-1))),
	}
	if n == 1 {
		s.shift = 32
	}
	for i := range s.stripes {
		s.stripes[i].data = make(map[keyrange.Key][]float64)
		s.stripes[i].updates = make(map[keyrange.Key]uint64)
	}
	return s
}

// NumStripes returns the shard's stripe count (a power of two).
func (s *Shard) NumStripes() int { return len(s.stripes) }

// StripeOf returns the stripe index owning key k's lock domain. It is a
// pure hash of k — valid for keys the shard does not (yet) own, which is
// what lets a server partition an incoming push payload without touching
// any stripe lock.
func (s *Shard) StripeOf(k keyrange.Key) int {
	return int(stripeHash(k) >> s.shift)
}

func (s *Shard) stripeFor(k keyrange.Key) *shardStripe {
	return &s.stripes[s.StripeOf(k)]
}

// Keys returns the keys this shard owns (shared slice; do not mutate).
func (s *Shard) Keys() []keyrange.Key { return s.keys }

// Dim returns the total number of scalars stored in the shard.
func (s *Shard) Dim() int {
	d := 0
	for _, k := range s.keys {
		d += s.layout.KeySize(k)
	}
	return d
}

// Has reports whether the shard owns key k.
func (s *Shard) Has(k keyrange.Key) bool {
	_, ok := s.stripeFor(k).data[k]
	return ok
}

// Segment returns the live segment for key k. The caller must not hold the
// returned slice across shard mutations it does not control; use ReadInto
// for a copy.
func (s *Shard) Segment(k keyrange.Key) ([]float64, error) {
	seg, ok := s.stripeFor(k).data[k]
	if !ok {
		return nil, unknownKey("segment", k)
	}
	return seg, nil
}

// ReadInto copies key k's segment into dst and returns the number of
// scalars copied. dst must be at least the key's size.
func (s *Shard) ReadInto(k keyrange.Key, dst []float64) (int, error) {
	seg, ok := s.stripeFor(k).data[k]
	if !ok {
		return 0, unknownKey("read-into", k)
	}
	if len(dst) < len(seg) {
		return 0, &DimError{Op: "read-into", Key: k, Got: len(dst), Want: len(seg)}
	}
	return copy(dst, seg), nil
}

// ApplyGrad performs w_k += scale · grad for key k (Algorithm 1 line 15
// uses scale = 1/N) under the key's stripe lock. grad must have exactly
// the key's size: a mismatch returns a *DimError (wrapping ErrDimMismatch)
// and applies nothing — never a truncated or partial update.
func (s *Shard) ApplyGrad(k keyrange.Key, grad []float64, scale float64) error {
	sp := s.stripeFor(k)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	seg, ok := sp.data[k]
	if !ok {
		return unknownKey("apply-grad", k)
	}
	if len(grad) != len(seg) {
		return &DimError{Op: "apply-grad", Key: k, Got: len(grad), Want: len(seg)}
	}
	mathx.Axpy(scale, grad, seg)
	sp.updates[k]++
	return nil
}

// BatchItem is one key's coalesced contribution to an ApplyBatch call:
// every gradient in Grads targets Key and is applied fused (one pass over
// the segment, one update-counter bump per gradient).
type BatchItem struct {
	Key   keyrange.Key
	Grads [][]float64
}

// ApplyBatch applies a coalesced gradient batch to stripe `stripe` under a
// single lock acquisition: for every item, seg += scale · Σ item.Grads.
// All items must hash to the given stripe (the caller partitioned them
// with StripeOf). Validation runs before any mutation per item; a
// *DimError or ErrUnknownKey rejects that item whole, leaving earlier
// items applied — the server treats any error as fatal, so partial-batch
// visibility is never observable in practice.
func (s *Shard) ApplyBatch(stripe int, scale float64, items []BatchItem) error {
	sp := &s.stripes[stripe]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for i := range items {
		it := &items[i]
		seg, ok := sp.data[it.Key]
		if !ok {
			return unknownKey("apply-batch", it.Key)
		}
		for _, g := range it.Grads {
			if len(g) != len(seg) {
				return &DimError{Op: "apply-batch", Key: it.Key, Got: len(g), Want: len(seg)}
			}
		}
		mathx.AxpyBatch(scale, it.Grads, seg)
		sp.updates[it.Key] += uint64(len(it.Grads))
	}
	return nil
}

// Set overwrites key k's segment (used for rebalance handoff) under the
// key's stripe lock. A length mismatch returns a *DimError and writes
// nothing.
func (s *Shard) Set(k keyrange.Key, vals []float64) error {
	sp := s.stripeFor(k)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	seg, ok := sp.data[k]
	if !ok {
		return unknownKey("set", k)
	}
	if len(vals) != len(seg) {
		return &DimError{Op: "set", Key: k, Got: len(vals), Want: len(seg)}
	}
	copy(seg, vals)
	return nil
}

// Updates returns how many gradient applications key k has received. Safe
// to call concurrently with appliers (it takes the stripe lock).
func (s *Shard) Updates(k keyrange.Key) uint64 {
	sp := s.stripeFor(k)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.updates[k]
}

// AddKey takes ownership of key k with the given segment contents (used
// by elastic rebalancing when a segment migrates in). It is an error if
// the shard already owns k or the values have the wrong size. Structural:
// requires quiescence.
func (s *Shard) AddKey(k keyrange.Key, vals []float64) error {
	sp := s.stripeFor(k)
	if _, ok := sp.data[k]; ok {
		return fmt.Errorf("kvstore: shard already owns key %d", k)
	}
	if len(vals) != s.layout.KeySize(k) {
		return &DimError{Op: "add-key", Key: k, Got: len(vals), Want: s.layout.KeySize(k)}
	}
	sp.data[k] = append([]float64(nil), vals...)
	s.keyGen++
	s.keys = append(s.keys, k)
	slices.Sort(s.keys)
	return nil
}

// RemoveKey releases ownership of key k and returns its final segment
// contents (used by elastic rebalancing when a segment migrates out).
// Structural: requires quiescence.
func (s *Shard) RemoveKey(k keyrange.Key) ([]float64, error) {
	sp := s.stripeFor(k)
	seg, ok := sp.data[k]
	if !ok {
		return nil, unknownKey("remove-key", k)
	}
	delete(sp.data, k)
	delete(sp.updates, k)
	s.keyGen++
	if i := slices.Index(s.keys, k); i >= 0 {
		s.keys = slices.Delete(s.keys, i, i+1)
	}
	return seg, nil
}

// GatherInto appends the concatenation of vec's segments for keys to dst
// and returns it; this is the payload layout of push/pull messages.
func GatherInto(dst []float64, layout *keyrange.Layout, vec []float64, keys []keyrange.Key) []float64 {
	for _, k := range keys {
		dst = append(dst, layout.Slice(vec, k)...)
	}
	return dst
}

// Scatter writes a concatenated payload for keys back into vec's segments.
// It returns a *DimError (wrapping ErrDimMismatch) if the payload length
// does not match the keys' total size.
func Scatter(layout *keyrange.Layout, vec []float64, keys []keyrange.Key, vals []float64) error {
	off := 0
	for _, k := range keys {
		// Keys arrive off the wire; an out-of-layout key must be an error,
		// not an index panic.
		if int(k) >= layout.NumKeys() {
			return unknownKey("scatter", k)
		}
		sz := layout.KeySize(k)
		if off+sz > len(vals) {
			return &DimError{Op: "scatter", Payload: true, Got: len(vals), Want: off + sz}
		}
		copy(layout.Slice(vec, k), vals[off:off+sz])
		off += sz
	}
	if off != len(vals) {
		return &DimError{Op: "scatter", Payload: true, Got: len(vals), Want: off}
	}
	return nil
}

// GatherShard appends the shard's segments for keys (in the given order) to
// dst — the server-side counterpart of GatherInto for pull responses.
// Requires quiescence (no concurrent appliers).
func (s *Shard) GatherShard(dst []float64, keys []keyrange.Key) ([]float64, error) {
	for _, k := range keys {
		seg, ok := s.stripeFor(k).data[k]
		if !ok {
			return nil, unknownKey("gather", k)
		}
		dst = append(dst, seg...)
	}
	return dst, nil
}

// ForEachPayload walks a concatenated payload for keys, calling fn once
// per key with that key's sub-slice of vals. Out-of-layout or unowned
// keys and size mismatches return an error before fn sees the offending
// key — which is what lets the server's apply engine partition a push
// into per-stripe batches and report a malformed push identically to
// the serial path (ApplyGradPayload). Requires quiescence (ownership is
// checked without stripe locks).
func (s *Shard) ForEachPayload(keys []keyrange.Key, vals []float64, fn func(k keyrange.Key, grad []float64)) error {
	off := 0
	for _, k := range keys {
		if int(k) >= s.layout.NumKeys() {
			return unknownKey("apply-payload", k)
		}
		if _, ok := s.stripeFor(k).data[k]; !ok {
			return unknownKey("apply-payload", k)
		}
		sz := s.layout.KeySize(k)
		if off+sz > len(vals) {
			return &DimError{Op: "apply-payload", Payload: true, Got: len(vals), Want: off + sz}
		}
		fn(k, vals[off:off+sz])
		off += sz
	}
	if off != len(vals) {
		return &DimError{Op: "apply-payload", Payload: true, Got: len(vals), Want: off}
	}
	return nil
}

// ApplyGradPayload applies a concatenated gradient payload for keys with
// the given scale — the server-side counterpart of Scatter for pushes.
// It validates exactly like ForEachPayload: an out-of-layout or unowned
// key or a size mismatch (per key or whole payload) returns an error
// before the offending key is touched.
func (s *Shard) ApplyGradPayload(keys []keyrange.Key, vals []float64, scale float64) error {
	var err error
	if ferr := s.ForEachPayload(keys, vals, func(k keyrange.Key, grad []float64) {
		if err == nil {
			err = s.ApplyGrad(k, grad, scale)
		}
	}); ferr != nil {
		return ferr
	}
	return err
}

// ApplyDelta adds a precomputed delta to key k's segment and advances its
// update counter by n — the backup-side apply of a replicated wave, where
// the primary already coalesced n gradients (pre-scaled) into one delta.
func (s *Shard) ApplyDelta(k keyrange.Key, delta []float64, n uint64) error {
	sp := s.stripeFor(k)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	seg, ok := sp.data[k]
	if !ok {
		return unknownKey("apply-delta", k)
	}
	if len(delta) != len(seg) {
		return &DimError{Op: "apply-delta", Key: k, Got: len(delta), Want: len(seg)}
	}
	mathx.Axpy(1, delta, seg)
	sp.updates[k] += n
	return nil
}

// SetWithUpdates overwrites key k's segment and its update counter — the
// backup-side apply of a replica snapshot.
func (s *Shard) SetWithUpdates(k keyrange.Key, vals []float64, updates uint64) error {
	sp := s.stripeFor(k)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	seg, ok := sp.data[k]
	if !ok {
		return unknownKey("set-with-updates", k)
	}
	if len(vals) != len(seg) {
		return &DimError{Op: "set-with-updates", Key: k, Got: len(vals), Want: len(seg)}
	}
	copy(seg, vals)
	sp.updates[k] = updates
	return nil
}
