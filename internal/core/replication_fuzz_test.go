package core

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/syncmodel"
	"github.com/fluentps/fluentps/internal/transport"
)

// fuzzFloats reinterprets fuzz bytes as the float64 words of a payload;
// fuzzBytes is its inverse, for building seed corpora from hand-laid
// frames.
func fuzzFloats(data []byte) []float64 {
	vals := make([]float64, 0, len(data)/8)
	for off := 0; off+8 <= len(data); off += 8 {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
	}
	return vals
}

func fuzzBytes(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// fuzzWaveLayout is the fixed key layout every fuzzed wave decodes
// against: three keys of sizes 2, 3, 1.
func fuzzWaveLayout() *keyrange.Layout {
	return keyrange.MustLayout([]int{2, 3, 1})
}

// waveSeed hand-lays a valid replication frame for the fuzz corpus,
// mirroring encodeWave's layout: vtrain, specOK, 5×spec, nProgress,
// progress…, nCounts, (round,count)…, nPairs, (worker,seq)…, one counter
// per key, concatenated segments.
func waveSeed(keys []byte, spec []float64, progress, counts, pairs []float64, segs int) []byte {
	vals := []float64{5, 1}
	vals = append(vals, spec...)
	vals = append(vals, float64(len(progress)))
	vals = append(vals, progress...)
	vals = append(vals, float64(len(counts)/2))
	vals = append(vals, counts...)
	vals = append(vals, float64(len(pairs)/2))
	vals = append(vals, pairs...)
	for range keys {
		vals = append(vals, 1)
	}
	for i := 0; i < segs; i++ {
		vals = append(vals, float64(i)/8)
	}
	return fuzzBytes(vals)
}

// FuzzDecodeWave: a replication frame assembled from arbitrary bytes must
// never panic the decoder, and frames that decode must satisfy the wave
// invariants (per-key counters and segment lengths match the key list).
func FuzzDecodeWave(f *testing.F) {
	layout := fuzzWaveLayout()
	spec := syncmodel.SSP(2)
	sp, _ := syncmodel.SpecOf(spec)
	specVals := []float64{float64(sp.Kind), float64(sp.S), sp.C, float64(sp.Min), float64(sp.Max)}
	// Delta wave over keys 0 and 2 (sizes 2+1), two workers.
	f.Add([]byte{0, 2}, false,
		waveSeed([]byte{0, 2}, specVals, []float64{7, 6}, []float64{5, 1}, []float64{0, 42}, 3))
	// Snapshot over all keys, no spec (specOK=0 path needs its own seed).
	all := waveSeed([]byte{0, 1, 2}, specVals, []float64{3, 3, 3}, nil, []float64{1, 9}, 6)
	all[8] = 0 // flip specOK
	f.Add([]byte{0, 1, 2}, true, all)
	// Empty wave: no keys, no segments.
	f.Add([]byte{}, false, waveSeed(nil, []float64{0, 0, 0, 0, 0}, nil, nil, nil, 0))
	// Truncated header.
	f.Add([]byte{1}, false, fuzzBytes([]float64{1, 0, 0}))
	// wire.ReadLen boundary: the (round, count) words are exactly the
	// last words of the frame, so nCounts == len(rest)/2 — the largest
	// count ReadLen may accept.
	boundary := waveSeed(nil, specVals, nil, []float64{5, 1}, nil, 0)
	f.Add([]byte{}, false, boundary[:len(boundary)-8])
	// …and a hostile count whose 2*n product would overflow int must be
	// rejected by the division-based bound, not slip past it.
	f.Add([]byte{}, false, fuzzBytes([]float64{5, 0, 0, 0, 0, 0, 0, 0, float64(1 << 62), 0, 0}))
	f.Fuzz(func(t *testing.T, keysRaw []byte, snapshot bool, payload []byte) {
		if len(keysRaw) > 64 {
			keysRaw = keysRaw[:64]
		}
		keys := make([]keyrange.Key, len(keysRaw))
		for i, b := range keysRaw {
			// Mostly in-layout keys, occasionally one past the end so the
			// out-of-layout rejection path stays exercised.
			keys[i] = keyrange.Key(int(b) % (layout.NumKeys() + 1))
		}
		msg := &transport.Message{
			Type: transport.MsgReplicate,
			Seq:  3,
			Keys: keys,
			Vals: fuzzFloats(payload),
		}
		if snapshot {
			msg.Progress = 1
		}
		w, err := decodeWave(layout, msg)
		if err != nil {
			return
		}
		if w.snapshot != snapshot {
			t.Fatalf("snapshot flag lost: sent %v, decoded %v", snapshot, w.snapshot)
		}
		if len(w.perKey) != len(w.keys) {
			t.Fatalf("decoded %d counters for %d keys", len(w.perKey), len(w.keys))
		}
		need := 0
		for _, k := range w.keys {
			if int(k) >= layout.NumKeys() {
				t.Fatalf("decoder accepted key %d outside the %d-key layout", k, layout.NumKeys())
			}
			need += layout.KeySize(k)
		}
		if len(w.vals) != need {
			t.Fatalf("decoded %d segment values for keys needing %d", len(w.vals), need)
		}
	})
}

// FuzzDecodeShardState: arbitrary stats payloads must never panic, and
// payloads that decode must re-encode to a stable frame. The corpus seeds
// a full frame, the zero state, and frames of the wrong length.
func FuzzDecodeShardState(f *testing.F) {
	full := ShardState{
		VTrain: 12, MinProgress: 11, MaxProgress: 14, CountAtRound: 3,
		Buffered: 1, Pulls: 120, Pushes: 118, DPRs: 7, Dropped: 2,
		DedupHits: 5, Keys: 4,
		ModelKind: int(syncmodel.KindDSPS), ModelS: 3, ModelMin: 1, ModelMax: 8,
		ModelC: 0.25, Switches: 2,
		SnapshotEpoch: 42, ROPulls: 900,
	}
	frame := full.encode(nil)
	f.Add(fuzzBytes(frame))
	f.Add(fuzzBytes(ShardState{}.encode(nil)))
	f.Add(fuzzBytes(frame[:shardStateLen-1])) // one short: must error, not panic
	f.Add(fuzzBytes([]float64{1, 2, 3}))      // wrong length: must error, not panic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeShardState(fuzzFloats(data))
		if err != nil {
			return
		}
		enc := st.encode(nil)
		st2, err := decodeShardState(enc)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		enc2 := st2.encode(nil)
		for i := range enc {
			// Bitwise: ModelC may legitimately be NaN.
			if math.Float64bits(enc[i]) != math.Float64bits(enc2[i]) {
				t.Fatalf("encode not stable at word %d: %x -> %x",
					i, math.Float64bits(enc[i]), math.Float64bits(enc2[i]))
			}
		}
	})
}
