package keys

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hierarchy"
	"repro/internal/wire"
)

func iv(lo, hi uint64) hierarchy.Interval { return hierarchy.Interval{Lo: lo, Hi: hi} }

func testSchema(t *testing.T) *hierarchy.Schema {
	t.Helper()
	return hierarchy.MustSchema(
		hierarchy.MustDimension("A", hierarchy.Level{Name: "L1", Fanout: 10}, hierarchy.Level{Name: "L2", Fanout: 10}),
		hierarchy.MustDimension("B", hierarchy.Level{Name: "L1", Fanout: 50}),
	)
}

func TestKindString(t *testing.T) {
	if MBR.String() != "MBR" || MDS.String() != "MDS" {
		t.Error("Kind.String wrong")
	}
}

func TestRectBasics(t *testing.T) {
	s := testSchema(t)
	all := AllRect(s)
	if all.Ivs[0] != iv(0, 99) || all.Ivs[1] != iv(0, 49) {
		t.Errorf("AllRect = %v", all)
	}
	if got := all.CoverageFraction(s); got != 1.0 {
		t.Errorf("full coverage = %f", got)
	}
	r := NewRect(iv(0, 49), iv(0, 49))
	if got := r.CoverageFraction(s); got != 0.5 {
		t.Errorf("half coverage = %f", got)
	}
	if !r.ContainsPoint([]uint64{0, 0}) || r.ContainsPoint([]uint64{50, 0}) {
		t.Error("Rect.ContainsPoint wrong")
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestRectEncodeDecode(t *testing.T) {
	r := NewRect(iv(3, 17), iv(0, 49))
	w := wire.NewWriter(16)
	r.Encode(w)
	got, err := DecodeRect(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Ivs[0] != r.Ivs[0] || got.Ivs[1] != r.Ivs[1] {
		t.Errorf("roundtrip %v -> %v", r, got)
	}
	if _, err := DecodeRect(wire.NewReader(w.Bytes()[:2])); err == nil {
		t.Error("truncated rect should fail")
	}
}

func TestEmptyKey(t *testing.T) {
	for _, kind := range []Kind{MBR, MDS} {
		k := NewEmpty(kind, 2, 0)
		if !k.Empty() || k.Dims() != 2 || k.Kind() != kind {
			t.Error("empty key basics wrong")
		}
		if k.ContainsPoint([]uint64{0, 0}) {
			t.Error("empty key contains nothing")
		}
		if k.OverlapsRect(NewRect(iv(0, 10), iv(0, 10))) {
			t.Error("empty key overlaps nothing")
		}
		if k.CoveredByRect(NewRect(iv(0, 10), iv(0, 10))) {
			t.Error("empty key is covered by nothing")
		}
		if k.Volume() != 0 {
			t.Error("empty volume should be 0")
		}
		if k.String() == "" {
			t.Error("String empty")
		}
	}
}

func TestPointKeyAndExtend(t *testing.T) {
	k := NewPoint(MBR, 0, []uint64{5, 7})
	if k.Empty() || !k.ContainsPoint([]uint64{5, 7}) {
		t.Fatal("point key wrong")
	}
	if k.Volume() != 1 {
		t.Errorf("point volume = %f", k.Volume())
	}
	k.ExtendPoint([]uint64{9, 7})
	// MBR: A spans [5,9], B spans [7,7].
	if !k.ContainsPoint([]uint64{7, 7}) {
		t.Error("MBR should cover the gap")
	}
	if k.Volume() != 5 {
		t.Errorf("MBR volume = %f", k.Volume())
	}

	m := NewPoint(MDS, 4, []uint64{5, 7})
	m.ExtendPoint([]uint64{9, 7})
	// MDS keeps the two A-values as separate intervals.
	if m.ContainsPoint([]uint64{7, 7}) {
		t.Error("MDS should not cover the gap")
	}
	if m.Volume() != 2 {
		t.Errorf("MDS volume = %f", m.Volume())
	}
	if !m.ContainsPoint([]uint64{5, 7}) || !m.ContainsPoint([]uint64{9, 7}) {
		t.Error("MDS lost a point")
	}
}

func TestMDSAdjacentMerge(t *testing.T) {
	k := NewPoint(MDS, 4, []uint64{5, 0})
	k.ExtendPoint([]uint64{6, 0})
	k.ExtendPoint([]uint64{4, 0})
	if got := len(k.Set(0)); got != 1 {
		t.Fatalf("adjacent ordinals should merge into one interval, got %d", got)
	}
	if k.Bounds(0) != iv(4, 6) {
		t.Errorf("Bounds = %v", k.Bounds(0))
	}
	// Fill a gap between two intervals.
	k.ExtendPoint([]uint64{9, 0})
	k.ExtendPoint([]uint64{8, 0})
	k.ExtendPoint([]uint64{7, 0})
	if got := len(k.Set(0)); got != 1 {
		t.Fatalf("gap fill should merge, got %d intervals: %v", got, k.Set(0))
	}
}

func TestMDSCapCoarsening(t *testing.T) {
	k := NewPoint(MDS, 3, []uint64{0, 0})
	for _, v := range []uint64{10, 20, 30, 40} {
		k.ExtendPoint([]uint64{v, 0})
	}
	if got := len(k.Set(0)); got > 3 {
		t.Fatalf("cap exceeded: %d intervals", got)
	}
	// Coverage must be preserved (superset).
	for _, v := range []uint64{0, 10, 20, 30, 40} {
		if !k.ContainsPoint([]uint64{v, 0}) {
			t.Errorf("lost coverage of %d after coarsening", v)
		}
	}
}

func TestExtendKeyAndUnion(t *testing.T) {
	a := NewPoint(MDS, 4, []uint64{1, 1})
	a.ExtendPoint([]uint64{3, 1})
	b := NewPoint(MDS, 4, []uint64{2, 5})
	a.ExtendKey(b)
	for _, p := range [][]uint64{{1, 1}, {3, 1}, {2, 5}} {
		if !a.ContainsPoint(p) {
			t.Errorf("union lost %v", p)
		}
	}
	// Extending with empty is a no-op; extending empty copies.
	e := NewEmpty(MDS, 2, 4)
	a2 := a.Clone()
	a.ExtendKey(e)
	if !a.Equal(a2) {
		t.Error("extend by empty changed key")
	}
	e.ExtendKey(a)
	if !e.Equal(a) {
		t.Error("extend of empty should copy")
	}
}

func TestOverlapsAndCoverage(t *testing.T) {
	k := NewPoint(MBR, 0, []uint64{10, 10})
	k.ExtendPoint([]uint64{20, 20})
	if !k.OverlapsRect(NewRect(iv(15, 30), iv(0, 15))) {
		t.Error("should overlap")
	}
	if k.OverlapsRect(NewRect(iv(21, 30), iv(0, 50))) {
		t.Error("should not overlap")
	}
	if !k.CoveredByRect(NewRect(iv(0, 30), iv(0, 30))) {
		t.Error("should be covered")
	}
	if k.CoveredByRect(NewRect(iv(0, 15), iv(0, 30))) {
		t.Error("should not be covered")
	}
}

func TestOverlapsKeyAndVolume(t *testing.T) {
	a := NewPoint(MBR, 0, []uint64{0, 0})
	a.ExtendPoint([]uint64{9, 9})
	b := NewPoint(MBR, 0, []uint64{5, 5})
	b.ExtendPoint([]uint64{14, 14})
	if !a.OverlapsKey(b) || !b.OverlapsKey(a) {
		t.Error("keys should overlap")
	}
	if got := a.OverlapVolume(b); got != 25 {
		t.Errorf("overlap volume = %f, want 25", got)
	}
	c := NewPoint(MBR, 0, []uint64{11, 0})
	if a.OverlapsKey(c) || a.OverlapVolume(c) != 0 {
		t.Error("disjoint keys should not overlap")
	}
	var empty = NewEmpty(MBR, 2, 0)
	if a.OverlapsKey(empty) || empty.OverlapVolume(a) != 0 {
		t.Error("empty overlap wrong")
	}
}

func TestEnlargementPoint(t *testing.T) {
	k := NewPoint(MBR, 0, []uint64{0, 0})
	k.ExtendPoint([]uint64{9, 9}) // 10x10 = 100
	if got := k.EnlargementPoint([]uint64{5, 5}); got != 0 {
		t.Errorf("inside point enlargement = %f", got)
	}
	// MBR semantics here are per-ordinal-set, so a new column adds one
	// cell in that dimension: 11*10 - 100 = 10.
	if got := k.EnlargementPoint([]uint64{10, 5}); got != 10 {
		t.Errorf("edge point enlargement = %f", got)
	}
	e := NewEmpty(MBR, 2, 0)
	if got := e.EnlargementPoint([]uint64{1, 1}); got != 1 {
		t.Errorf("empty enlargement = %f", got)
	}
}

func TestKeyEncodeDecode(t *testing.T) {
	k := NewPoint(MDS, 4, []uint64{1, 40})
	k.ExtendPoint([]uint64{17, 3})
	k.ExtendPoint([]uint64{90, 22})
	w := wire.NewWriter(64)
	k.Encode(w)
	got, err := DecodeKey(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(k) {
		t.Errorf("roundtrip %v -> %v", k, got)
	}
	e := NewEmpty(MBR, 3, 0)
	w.Reset()
	e.Encode(w)
	got, err = DecodeKey(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() || got.Dims() != 3 {
		t.Error("empty key roundtrip wrong")
	}
	if _, err := DecodeKey(wire.NewReader([]byte{1})); err == nil {
		t.Error("truncated key should fail")
	}
}

func TestCopyFrom(t *testing.T) {
	a := NewPoint(MDS, 4, []uint64{1, 2})
	a.ExtendPoint([]uint64{7, 9})
	b := NewEmpty(MBR, 2, 0)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Error("CopyFrom not equal")
	}
	// Mutating b must not affect a.
	b.ExtendPoint([]uint64{50, 50})
	if a.ContainsPoint([]uint64{50, 50}) {
		t.Error("CopyFrom aliased storage")
	}
}

// TestResetAndExtendInPlace checks that Reset empties a key and moves
// Gen, and that a key reset and regrown to its cap, or extended by
// another key of the same cap, allocates nothing.
func TestResetAndExtendInPlace(t *testing.T) {
	k := NewPoint(MDS, 4, []uint64{1, 2})
	g := k.Gen()
	k.Reset()
	if !k.Empty() || k.Gen() == g || k.ContainsPoint([]uint64{1, 2}) {
		t.Errorf("after Reset: %v, gen %d (was %d)", k, k.Gen(), g)
	}
	o := NewEmpty(MDS, 2, 4)
	for _, p := range [][]uint64{{3, 40}, {9, 30}, {20, 20}, {31, 10}, {45, 0}} {
		o.ExtendPoint(p)
	}
	allocs := testing.AllocsPerRun(20, func() {
		k.Reset()
		for _, p := range [][2]uint64{{0, 0}, {10, 10}, {22, 22}, {34, 34}, {46, 46}} {
			k.ExtendPoint(p[:])
		}
		k.ExtendKey(o)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per reset and regrowth", allocs)
	}
	want := NewEmpty(MDS, 2, 4)
	for _, p := range [][]uint64{{0, 0}, {10, 10}, {22, 22}, {34, 34}, {46, 46}} {
		want.ExtendPoint(p)
	}
	want.ExtendKey(o)
	if !k.Equal(want) {
		t.Errorf("reset and regrown key %v, want %v", k, want)
	}
}

// TestKeyInvariants property-tests the central key invariants under random
// point extension: (1) every extended point stays contained, (2) volume
// never decreases, (3) MDS region ⊆ MBR region over the same points, and
// (4) interval sets stay sorted, disjoint, and within cap.
func TestKeyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mbr := NewEmpty(MBR, 2, 0)
		mds := NewEmpty(MDS, 2, 4)
		pts := make([][]uint64, 0, 40)
		prevVol := 0.0
		for i := 0; i < 40; i++ {
			p := []uint64{uint64(rng.Intn(1000)), uint64(rng.Intn(1000))}
			pts = append(pts, p)
			mbr.ExtendPoint(p)
			mds.ExtendPoint(p)
			if v := mds.Volume(); v < prevVol {
				return false
			} else {
				prevVol = v
			}
			for _, q := range pts {
				if !mbr.ContainsPoint(q) || !mds.ContainsPoint(q) {
					return false
				}
			}
			for d := 0; d < 2; d++ {
				set := mds.Set(d)
				if len(set) > 4 {
					return false
				}
				for j := 0; j+1 < len(set); j++ {
					if set[j].Hi+1 >= set[j+1].Lo {
						return false // overlapping or adjacent
					}
				}
			}
			// MDS is a subset of MBR: MBR covers MDS's bounds.
			for d := 0; d < 2; d++ {
				if !mds.Bounds(d).CoveredBy(mbr.Bounds(d)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSetPrimitives covers the low-level interval set helpers directly.
func TestSetPrimitives(t *testing.T) {
	set := []hierarchy.Interval{iv(2, 4), iv(8, 10), iv(20, 20)}
	for _, tc := range []struct {
		ord  uint64
		want bool
	}{{2, true}, {4, true}, {5, false}, {10, true}, {19, false}, {20, true}, {21, false}} {
		if got := setContains(set, tc.ord); got != tc.want {
			t.Errorf("setContains(%d) = %v", tc.ord, got)
		}
	}
	if !setOverlapsInterval(set, iv(5, 8)) || setOverlapsInterval(set, iv(5, 7)) {
		t.Error("setOverlapsInterval wrong")
	}
	if SetLen(set) != 3+3+1 {
		t.Errorf("SetLen = %d", SetLen(set))
	}
	other := []hierarchy.Interval{iv(0, 2), iv(9, 25)}
	if got := IntersectLen(set, other); got != 1+2+1 {
		t.Errorf("IntersectLen = %d", got)
	}
	if got := IntersectLen(set, nil); got != 0 {
		t.Errorf("IntersectLen(nil) = %d", got)
	}
	u := UnionSets(nil, set, other, 10)
	if SetLen(u) != 23 { // [0,4] ∪ [8,25] = 5 + 18 = 23
		t.Errorf("UnionSets covers %d: %v", SetLen(u), u)
	}
}

// TestExtendedSetMatchesExtend checks that ExtendedSetPoint and
// ExtendedSetKey predict exactly the sets ExtendPoint and ExtendKey
// produce, that they leave the key alone, and that Gen moves exactly
// when the region does.
func TestExtendedSetMatchesExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dims = 3
	randPoint := func() []uint64 {
		p := make([]uint64, dims)
		for d := range p {
			p[d] = uint64(rng.Intn(60))
		}
		return p
	}
	for _, kind := range []Kind{MDS, MBR} {
		for _, capPerDim := range []int{1, 2, 4} {
			k := NewEmpty(kind, dims, capPerDim)
			var buf []hierarchy.Interval
			for step := 0; step < 400; step++ {
				before, gen := k.Clone(), k.Gen()
				want := k.Clone()
				ext := make([][]hierarchy.Interval, dims)
				changed := false
				if step%5 == 4 {
					o := NewPoint(kind, capPerDim, randPoint())
					if step%3 == 0 {
						o.ExtendPoint(randPoint())
					}
					for d := range ext {
						set, ch := k.ExtendedSetKey(d, o, buf)
						ext[d], changed = append([]hierarchy.Interval(nil), set...), changed || ch
					}
					want.ExtendKey(o)
					k.ExtendKey(o)
				} else {
					p := randPoint()
					for d := range ext {
						set, ch := k.ExtendedSetPoint(d, p[d], buf)
						ext[d], changed = append([]hierarchy.Interval(nil), set...), changed || ch
					}
					want.ExtendPoint(p)
					k.ExtendPoint(p)
				}
				for d := range ext {
					if !slices.Equal(ext[d], want.Set(d)) {
						t.Fatalf("%v cap %d step %d dim %d: predicted %v, extension gave %v", kind, capPerDim, step, d, ext[d], want.Set(d))
					}
				}
				if changed == before.Equal(k) {
					t.Fatalf("%v cap %d step %d: changed=%v but region equal=%v", kind, capPerDim, step, changed, before.Equal(k))
				}
				if (k.Gen() != gen) != changed {
					t.Fatalf("%v cap %d step %d: Gen %d→%d with changed=%v", kind, capPerDim, step, gen, k.Gen(), changed)
				}
			}
		}
	}
}

// TestDecodeKeyRejectsBadCap: a decoded key whose cap NewEmpty could not
// have produced used to be accepted, and its first extension panicked in
// coarsen.
func TestDecodeKeyRejectsBadCap(t *testing.T) {
	two := []hierarchy.Interval{iv(1, 2), iv(5, 6)}
	for _, tc := range []struct {
		name string
		k    *Key
	}{
		{"mds cap 0", &Key{kind: MDS, cap: 0, sets: [][]hierarchy.Interval{{iv(1, 1)}}}},
		{"mbr cap 2", &Key{kind: MBR, cap: 2, sets: [][]hierarchy.Interval{two}}},
		{"mbr cap 2 empty", &Key{kind: MBR, cap: 2, empty: true, sets: make([][]hierarchy.Interval, 1)}},
		{"intervals over cap", &Key{kind: MDS, cap: 1, sets: [][]hierarchy.Interval{two}}},
	} {
		w := wire.NewWriter(32)
		tc.k.Encode(w)
		if dk, err := DecodeKey(wire.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s: decoded %v, want an error", tc.name, dk)
		}
	}
	for _, k := range []*Key{NewEmpty(MBR, 2, 0), NewPoint(MDS, 1, []uint64{4, 9}), NewPoint(MBR, 0, []uint64{4, 9})} {
		w := wire.NewWriter(32)
		k.Encode(w)
		dk, err := DecodeKey(wire.NewReader(w.Bytes()))
		if err != nil || !dk.Equal(k) {
			t.Errorf("valid key %v: decoded %v, %v", k, dk, err)
		}
	}
}

func BenchmarkExtendPointMDS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]uint64, 1024)
	for i := range pts {
		pts[i] = []uint64{uint64(rng.Intn(100000)), uint64(rng.Intn(100000)), uint64(rng.Intn(100000)), uint64(rng.Intn(100000))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := NewEmpty(MDS, 4, 4)
		for _, p := range pts {
			k.ExtendPoint(p)
		}
	}
}

func BenchmarkOverlapVolume(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewEmpty(MDS, 8, 4)
	c := NewEmpty(MDS, 8, 4)
	for i := 0; i < 100; i++ {
		p := make([]uint64, 8)
		q := make([]uint64, 8)
		for d := range p {
			p[d] = uint64(rng.Intn(100000))
			q[d] = uint64(rng.Intn(100000))
		}
		a.ExtendPoint(p)
		c.ExtendPoint(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OverlapVolume(c)
	}
}
