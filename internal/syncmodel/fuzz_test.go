package syncmodel

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeSpec: arbitrary payloads must never panic DecodeSpec, and any
// spec that decodes must re-encode to a stable frame.
func FuzzDecodeSpec(f *testing.F) {
	toBytes := func(vals []float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(toBytes(Spec{Kind: KindSSP, S: 3}.Encode()))
	f.Add(toBytes(Spec{Kind: KindDSPS, S: 2, Min: 1, Max: 8}.Encode()))
	f.Add(toBytes(Spec{Kind: KindAdaptive, S: 4, Min: 1, Max: 16}.Encode()))
	f.Add(toBytes(Spec{Kind: KindDSPS, S: 2}.Encode())) // hand-built: bounds all zero
	f.Add(toBytes(Spec{Kind: KindPSSPConst, S: 3, C: 0.5}.Encode()))
	f.Add(toBytes([]float64{1, 2, 3, 4})) // wrong length: error, not panic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, 0, len(data)/8)
		for off := 0; off+8 <= len(data); off += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
		}
		s, err := DecodeSpec(vals)
		if err != nil {
			return
		}
		enc := s.Encode()
		s2, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		enc2 := s2.Encode()
		for i := range enc {
			// Bitwise: C may legitimately be NaN.
			if math.Float64bits(enc[i]) != math.Float64bits(enc2[i]) {
				t.Fatalf("encode not stable at word %d: %x -> %x",
					i, math.Float64bits(enc[i]), math.Float64bits(enc2[i]))
			}
		}
	})
}
