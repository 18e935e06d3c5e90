package keys

import (
	"testing"

	"repro/internal/wire"
)

// FuzzDecodeKey feeds arbitrary bytes to the key decoder: it must reject
// or produce a structurally usable key, never panic.
func FuzzDecodeKey(f *testing.F) {
	k := NewPoint(MDS, 4, []uint64{3, 7, 11})
	k.ExtendPoint([]uint64{90, 2, 5})
	w := wire.NewWriter(64)
	k.Encode(w)
	f.Add(w.Bytes())
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		dk, err := DecodeKey(wire.NewReader(data))
		if err != nil {
			return
		}
		// Basic operations on any successfully decoded key must not
		// panic.
		_ = dk.Volume()
		_ = dk.Clone().Equal(dk)
		if !dk.Empty() && dk.Dims() > 0 {
			_ = dk.Bounds(0)
			pt := make([]uint64, dk.Dims())
			_ = dk.ContainsPoint(pt)
		}
		// Extending the key, or extending by it, must work too: the
		// server's image does both with published keys.
		pt := make([]uint64, dk.Dims())
		for d := range pt {
			pt[d] = uint64(d) * 7
		}
		grown := dk.Clone()
		grown.ExtendPoint(pt)
		if !grown.ContainsPoint(pt) {
			t.Fatalf("%v extended by %v misses it", grown, pt)
		}
		grown.ExtendKey(dk)
		other := NewPoint(dk.Kind(), 2, pt)
		other.ExtendKey(dk)
		if !dk.CoveredByKey(other) {
			t.Fatalf("%v extended by %v does not cover it", other, dk)
		}
	})
}

// FuzzDecodeRect does the same for query rectangles.
func FuzzDecodeRect(f *testing.F) {
	r := NewRect()
	w := wire.NewWriter(16)
	r.Encode(w)
	f.Add(w.Bytes())
	w2 := wire.NewWriter(32)
	NewRect().Encode(w2)
	f.Add([]byte{2, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rect, err := DecodeRect(wire.NewReader(data))
		if err != nil {
			return
		}
		pt := make([]uint64, len(rect.Ivs))
		_ = rect.ContainsPoint(pt)
		_ = rect.String()
	})
}
