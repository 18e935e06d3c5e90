package rollup

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/keys"
)

// testSchema: A has 2 levels (fanout 2, 3 → 6 leaves), B has 1 level
// (fanout 4 → 4 leaves).
func testSchema(t *testing.T) *hierarchy.Schema {
	t.Helper()
	return hierarchy.MustSchema(
		hierarchy.MustDimension("A",
			hierarchy.Level{Name: "A1", Fanout: 2},
			hierarchy.Level{Name: "A2", Fanout: 3}),
		hierarchy.MustDimension("B",
			hierarchy.Level{Name: "B1", Fanout: 4}),
	)
}

func randItems(rng *rand.Rand, s *hierarchy.Schema, n int) []core.Item {
	items := make([]core.Item, n)
	for i := range items {
		coords := make([]uint64, s.NumDims())
		for d := range coords {
			coords[d] = rng.Uint64() % s.Dim(d).LeafCount()
		}
		items[i] = core.Item{Coords: coords, Measure: float64(rng.Intn(1000))}
	}
	return items
}

// alignedRect builds a random rect whose every interval starts and ends
// on the definition's cell-span boundaries.
func alignedRect(rng *rand.Rand, s *hierarchy.Schema, def Def) keys.Rect {
	ivs := make([]hierarchy.Interval, s.NumDims())
	for d := range ivs {
		span := s.Dim(d).LeavesUnder(def.Depths[d])
		groups := s.Dim(d).LeafCount() / span
		lo := rng.Uint64() % groups
		hi := lo + rng.Uint64()%(groups-lo)
		ivs[d] = hierarchy.Interval{Lo: lo * span, Hi: (hi+1)*span - 1}
	}
	return keys.NewRect(ivs...)
}

func bruteForce(items []core.Item, q keys.Rect) core.Aggregate {
	agg := core.NewAggregate()
	for _, it := range items {
		if q.ContainsPoint(it.Coords) {
			agg.AddItem(it.Measure)
		}
	}
	return agg
}

func sameAgg(a, b core.Aggregate) bool {
	if a.Count == 0 && b.Count == 0 {
		return true
	}
	return a.Count == b.Count && a.Sum == b.Sum && a.Min == b.Min && a.Max == b.Max
}

func TestDefValidate(t *testing.T) {
	s := testSchema(t)
	for _, tc := range []struct {
		depths []int
		ok     bool
	}{
		{[]int{0, 0}, true},
		{[]int{2, 1}, true},
		{[]int{1, 0}, true},
		{[]int{3, 0}, false}, // deeper than dimension A
		{[]int{-1, 0}, false},
		{[]int{1}, false}, // arity mismatch
		{[]int{1, 1, 1}, false},
	} {
		err := Def{Depths: tc.depths}.Validate(s)
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%v) err = %v, want ok=%v", tc.depths, err, tc.ok)
		}
	}
}

func TestParseDefString(t *testing.T) {
	s := testSchema(t)
	def, err := ParseDef(s, "A:1,B:1")
	if err != nil {
		t.Fatal(err)
	}
	if !def.Equal(Def{Depths: []int{1, 1}}) {
		t.Fatalf("ParseDef(A:1,B:1) = %v", def)
	}
	// By index, and round-trip through String.
	def2, err := ParseDef(s, def.String())
	if err != nil || !def2.Equal(def) {
		t.Fatalf("round-trip %q = %v, %v", def.String(), def2, err)
	}
	if all, err := ParseDef(s, "all"); err != nil || !all.Equal(Def{Depths: []int{0, 0}}) {
		t.Fatalf("ParseDef(all) = %v, %v", all, err)
	}
	for _, bad := range []string{"", "A", "A:9", "C:1", "A:x"} {
		if _, err := ParseDef(s, bad); err == nil {
			t.Errorf("ParseDef(%q) succeeded, want error", bad)
		}
	}
}

func TestCovers(t *testing.T) {
	s := testSchema(t)
	def := Def{Depths: []int{1, 0}} // A cells span 3 leaves, B spans all 4
	all := keys.AllRect(s)
	if !def.Covers(s, all) {
		t.Fatal("full rect not covered")
	}
	aligned := keys.NewRect(hierarchy.Interval{Lo: 3, Hi: 5}, hierarchy.Interval{Lo: 0, Hi: 3})
	if !def.Covers(s, aligned) {
		t.Fatalf("aligned rect %v not covered", aligned)
	}
	for _, bad := range []keys.Rect{
		keys.NewRect(hierarchy.Interval{Lo: 1, Hi: 5}, hierarchy.Interval{Lo: 0, Hi: 3}), // A misaligned lo
		keys.NewRect(hierarchy.Interval{Lo: 0, Hi: 4}, hierarchy.Interval{Lo: 0, Hi: 3}), // A misaligned hi
		keys.NewRect(hierarchy.Interval{Lo: 0, Hi: 5}, hierarchy.Interval{Lo: 0, Hi: 1}), // B not whole
	} {
		if def.Covers(s, bad) {
			t.Errorf("misaligned rect %v covered", bad)
		}
	}
	// CellsIn counts grid positions: the whole space is 2 A-cells.
	if n := def.CellsIn(s, all); n != 2 {
		t.Fatalf("CellsIn(all) = %d, want 2", n)
	}
}

func TestTableQueryMatchesBruteForce(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(1))
	items := randItems(rng, s, 500)
	for _, def := range []Def{
		{Depths: []int{0, 0}},
		{Depths: []int{1, 0}},
		{Depths: []int{2, 1}},
		{Depths: []int{1, 1}},
	} {
		tab := NewTable(s, def)
		tab.Add(items)
		for i := 0; i < 50; i++ {
			q := alignedRect(rng, s, def)
			if !def.Covers(s, q) {
				t.Fatalf("test bug: %v does not cover %v", def, q)
			}
			got, _ := tab.Query(q)
			want := bruteForce(items, q)
			if !sameAgg(got, want) {
				t.Fatalf("def %v query %v = %+v, want %+v", def, q, got, want)
			}
		}
	}
}

func TestTableGroupByMatchesBruteForce(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(2))
	items := randItems(rng, s, 400)
	def := Def{Depths: []int{2, 1}} // leaf-level cells on both dims
	tab := NewTable(s, def)
	tab.Add(items)

	// Group dimension A at level 0 (two level-1 values spanning 3 leaves).
	groupSpan := s.Dim(0).LeavesUnder(1)
	for i := 0; i < 30; i++ {
		q := alignedRect(rng, s, Def{Depths: []int{1, 1}}) // align to group span too
		got := make(map[uint64]core.Aggregate)
		tab.GroupBy(q, 0, groupSpan, got)
		want := make(map[uint64]core.Aggregate)
		for _, it := range items {
			if !q.ContainsPoint(it.Coords) {
				continue
			}
			v := it.Coords[0] / groupSpan
			agg, ok := want[v]
			if !ok {
				agg = core.NewAggregate()
			}
			agg.AddItem(it.Measure)
			want[v] = agg
		}
		if len(got) != len(want) {
			t.Fatalf("groupby %v: %d groups, want %d", q, len(got), len(want))
		}
		for v, agg := range want {
			if !sameAgg(got[v], agg) {
				t.Fatalf("groupby %v group %d = %+v, want %+v", q, v, got[v], agg)
			}
		}
	}
}

func TestRebuildMatchesIncremental(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, s, 300)
	defs := []Def{{Depths: []int{1, 0}}, {Depths: []int{2, 1}}}

	inc := NewSet(s, defs)
	inc.Add(items)
	reb := Rebuild(s, defs, func(fn func(core.Item) bool) {
		for _, it := range items {
			if !fn(it) {
				return
			}
		}
	})
	q := keys.AllRect(s)
	for i := range defs {
		a, _ := inc.Table(i).Query(q)
		b, _ := reb.Table(i).Query(q)
		if !sameAgg(a, b) {
			t.Fatalf("table %d: incremental %+v != rebuilt %+v", i, a, b)
		}
		if inc.Table(i).Cells() != reb.Table(i).Cells() {
			t.Fatalf("table %d cell counts differ", i)
		}
	}
}

func TestTrailerRoundTrip(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, s, 200)
	defs := []Def{{Depths: []int{1, 0}}, {Depths: []int{2, 1}}}
	set := NewSet(s, defs)
	set.Add(items)

	blob := set.EncodeTrailer()
	got, err := DecodeTrailer(blob, s, defs)
	if err != nil || got == nil {
		t.Fatalf("DecodeTrailer: %v %v", got, err)
	}
	q := keys.AllRect(s)
	for i := range defs {
		a, _ := set.Table(i).Query(q)
		b, _ := got.Table(i).Query(q)
		if !sameAgg(a, b) {
			t.Fatalf("table %d: %+v != %+v after round trip", i, a, b)
		}
	}

	// Nil set encodes to nil; empty or foreign bytes decode to (nil, nil).
	var nilSet *Set
	if nilSet.EncodeTrailer() != nil {
		t.Fatal("nil set produced a trailer")
	}
	if set, err := DecodeTrailer(nil, s, defs); set != nil || err != nil {
		t.Fatalf("DecodeTrailer(nil) = %v, %v", set, err)
	}
	if set, err := DecodeTrailer([]byte("not a rollup trailer"), s, defs); set != nil || err != nil {
		t.Fatalf("DecodeTrailer(garbage) = %v, %v", set, err)
	}

	// A magic-bearing but truncated trailer is an error, not a nil.
	if _, err := DecodeTrailer(blob[:len(blob)-3], s, defs); err == nil {
		t.Fatal("truncated trailer decoded without error")
	}
	// Definition drift is an error too: the caller must rebuild.
	if _, err := DecodeTrailer(blob, s, []Def{{Depths: []int{0, 0}}, {Depths: []int{2, 1}}}); err == nil {
		t.Fatal("mismatched definitions decoded without error")
	}
	if _, err := DecodeTrailer(blob, s, defs[:1]); err == nil {
		t.Fatal("wrong table count decoded without error")
	}
}

func TestSetNilSafety(t *testing.T) {
	var set *Set
	set.Add([]core.Item{{Coords: []uint64{0, 0}, Measure: 1}})
	if set.Table(0) != nil {
		t.Fatal("nil set returned a table")
	}
	if set.Cells() != 0 {
		t.Fatal("nil set has cells")
	}
	if NewSet(testSchema(t), nil) != nil {
		t.Fatal("NewSet with no defs should be nil")
	}
}
