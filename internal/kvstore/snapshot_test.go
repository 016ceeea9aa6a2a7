package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/fluentps/fluentps/internal/keyrange"
)

func TestSnapshotPublishAndRead(t *testing.T) {
	layout := stripedLayout(t, 6, 3)
	s := NewStripedShard(layout, allKeys(layout), func(k keyrange.Key, seg []float64) {
		for i := range seg {
			seg[i] = float64(k)
		}
	}, 4)

	if s.ROSnapshot() != nil {
		t.Fatal("unpublished shard already has a snapshot")
	}
	sn := s.PublishSnapshot(5)
	if sn.Epoch != 1 || sn.VTrain != 5 {
		t.Fatalf("first publish: epoch %d vtrain %d, want 1/5", sn.Epoch, sn.VTrain)
	}
	if got := s.ROSnapshot(); got != sn {
		t.Fatal("ROSnapshot does not return the published snapshot")
	}
	if sn.Dim() != 18 {
		t.Fatalf("Dim=%d, want 18", sn.Dim())
	}
	seg, ok := sn.Get(2)
	if !ok || len(seg) != 3 || seg[0] != 2 {
		t.Fatalf("Get(2) = %v %v", seg, ok)
	}
	if _, ok := sn.Get(99); ok {
		t.Fatal("Get of unknown key succeeded")
	}
	flat := sn.Flat()
	if len(flat) != 18 || flat[0] != 0 || flat[17] != 5 {
		t.Fatalf("Flat = %v", flat)
	}
	if &flat[0] != &sn.Flat()[0] {
		t.Fatal("Flat is not cached: second call re-materialized")
	}
	g, err := sn.Gather(nil, []keyrange.Key{5, 0})
	if err != nil || len(g) != 6 || g[0] != 5 || g[3] != 0 {
		t.Fatalf("Gather = %v, %v", g, err)
	}
	if _, err := sn.Gather(nil, []keyrange.Key{42}); err == nil {
		t.Fatal("Gather of unknown key succeeded")
	}
}

// A published snapshot is isolated from later writes, and epochs
// advance per publish.
func TestSnapshotImmuneToLaterWrites(t *testing.T) {
	layout := stripedLayout(t, 4, 2)
	s := NewStripedShard(layout, allKeys(layout), nil, 2)
	grad := []float64{1, 1}

	sn1 := s.PublishSnapshot(0)
	for _, k := range s.Keys() {
		if err := s.ApplyGrad(k, grad, 1); err != nil {
			t.Fatal(err)
		}
	}
	sn2 := s.PublishSnapshot(1)
	if sn2.Epoch != sn1.Epoch+1 {
		t.Fatalf("epochs %d -> %d, want +1", sn1.Epoch, sn2.Epoch)
	}
	for _, k := range s.Keys() {
		old, _ := sn1.Get(k)
		cur, _ := sn2.Get(k)
		if old[0] != 0 || cur[0] != 1 {
			t.Fatalf("key %d: sn1=%v sn2=%v, want 0 and 1", k, old, cur)
		}
	}
}

// One array per epoch: Flat and Get alias the same frozen array, a
// publish never aliases live shard storage, and an unchanged key set
// reuses the previous epoch's key index (a key-set change rebuilds it).
func TestSnapshotSingleArrayLayout(t *testing.T) {
	layout := stripedLayout(t, 16, 3)
	keys := allKeys(layout)
	s := NewStripedShard(layout, keys[:12], nil, 4)

	sn1 := s.PublishSnapshot(0)
	flat := sn1.Flat()
	if len(flat) != sn1.Dim() || len(flat) != 36 {
		t.Fatalf("Flat has %d scalars, Dim %d, want 36", len(flat), sn1.Dim())
	}
	lo, hi := &flat[0], &flat[len(flat)-1]
	inFlat := func(p *float64) bool {
		return uintptr(unsafe.Pointer(p)) >= uintptr(unsafe.Pointer(lo)) &&
			uintptr(unsafe.Pointer(p)) <= uintptr(unsafe.Pointer(hi))
	}
	for i, k := range sn1.Keys() {
		seg, ok := sn1.Get(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if &seg[0] != &flat[3*i] {
			t.Fatalf("Get(%d) does not alias Flat at offset %d", k, 3*i)
		}
		if cap(seg) != len(seg) {
			t.Fatalf("Get(%d) has spare capacity %d: an append would write into the next segment", k, cap(seg))
		}
		live, err := s.Segment(k)
		if err != nil {
			t.Fatal(err)
		}
		if inFlat(&live[0]) || inFlat(&live[len(live)-1]) {
			t.Fatalf("snapshot array aliases key %d's live segment", k)
		}
	}

	if err := s.ApplyGrad(keys[0], []float64{1, 1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	sn2 := s.PublishSnapshot(1)
	if sn2.idx != sn1.idx || &sn2.Keys()[0] != &sn1.Keys()[0] {
		t.Fatal("publish with an unchanged key set rebuilt the key index")
	}
	if &sn2.Flat()[0] == &flat[0] {
		t.Fatal("publish reused the previous epoch's array")
	}

	if err := s.AddKey(keys[13], []float64{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	sn3 := s.PublishSnapshot(2)
	if sn3.idx == sn2.idx || len(sn3.Keys()) != 13 || sn3.Dim() != 39 {
		t.Fatalf("key-set change kept the old index: %d keys, dim %d", len(sn3.Keys()), sn3.Dim())
	}
	if seg, _ := sn3.Get(keys[13]); seg[0] != 2 {
		t.Fatalf("added key reads %v, want 2", seg)
	}
	if len(sn2.Keys()) != 12 {
		t.Fatal("a key-set change rewrote the previous epoch's key list")
	}
}

// Elastic membership: snapshots track key arrival and departure.
func TestSnapshotTracksKeyChurn(t *testing.T) {
	layout := stripedLayout(t, 8, 2)
	keys := allKeys(layout)
	s := NewStripedShard(layout, keys[:4], nil, 2)
	sn1 := s.PublishSnapshot(0)
	if len(sn1.Keys()) != 4 {
		t.Fatalf("snapshot has %d keys, want 4", len(sn1.Keys()))
	}
	if err := s.AddKey(keys[6], []float64{7, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveKey(keys[0]); err != nil {
		t.Fatal(err)
	}
	sn2 := s.PublishSnapshot(1)
	if _, ok := sn2.Get(keys[6]); !ok {
		t.Fatal("added key missing from the next snapshot")
	}
	if _, ok := sn2.Get(keys[0]); ok {
		t.Fatal("removed key still present in the next snapshot")
	}
	if _, ok := sn1.Get(keys[6]); ok {
		t.Fatal("old snapshot grew a key retroactively")
	}
}

// TestSnapshotROStress is the PR 10 consistency stress test (wired into
// make race-stress): one apply goroutine runs write waves and publishes
// a snapshot after each — all elements of all keys equal the wave number
// — while concurrent readers continuously grab ROSnapshot and verify
// that every view is one consistent V_train cut: no torn segments, no
// mixed waves, epochs and V_train monotone per reader.
func TestSnapshotROStress(t *testing.T) {
	const (
		readers = 4
		waves   = 60
		nKeys   = 32
		dim     = 16
	)
	layout := stripedLayout(t, nKeys, dim)
	s := NewStripedShard(layout, allKeys(layout), nil, 8)
	s.PublishSnapshot(0)

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		errs = make(chan error, readers)
	)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			lastVT := -1
			buf := make([]float64, 0, nKeys*dim)
			for !stop.Load() {
				sn := s.ROSnapshot()
				if sn.Epoch < lastEpoch || sn.VTrain < lastVT {
					fail(fmt.Errorf("snapshot went backwards: epoch %d->%d vtrain %d->%d",
						lastEpoch, sn.Epoch, lastVT, sn.VTrain))
					return
				}
				lastEpoch, lastVT = sn.Epoch, sn.VTrain
				// Alternate the three read paths.
				var flat []float64
				switch sn.Epoch % 3 {
				case 0:
					flat = sn.Flat()
				case 1:
					var err error
					flat, err = sn.Gather(buf[:0], sn.Keys())
					if err != nil {
						fail(err)
						return
					}
				default:
					flat = flat[:0]
					for _, k := range sn.Keys() {
						seg, ok := sn.Get(k)
						if !ok {
							fail(fmt.Errorf("epoch %d: key %d missing", sn.Epoch, k))
							return
						}
						flat = append(flat, seg...)
					}
				}
				if len(flat) != nKeys*dim {
					fail(fmt.Errorf("epoch %d: %d scalars, want %d", sn.Epoch, len(flat), nKeys*dim))
					return
				}
				want := float64(sn.VTrain)
				for i, v := range flat {
					if v != want {
						fail(fmt.Errorf("torn snapshot at epoch %d: scalar %d is %v, want %v (one V_train cut)",
							sn.Epoch, i, v, want))
						return
					}
				}
			}
		}()
	}

	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = 1
	}
	for w := 1; w <= waves; w++ {
		for _, k := range s.Keys() {
			if err := s.ApplyGrad(k, grad, 1); err != nil {
				t.Fatal(err)
			}
		}
		s.PublishSnapshot(w)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final := s.ROSnapshot()
	if final.VTrain != waves || final.Epoch != uint64(waves)+1 {
		t.Fatalf("final snapshot epoch %d vtrain %d, want %d/%d", final.Epoch, final.VTrain, waves+1, waves)
	}
}
