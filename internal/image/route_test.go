package image

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/keys"
	"repro/internal/tpcds"
)

// refChooseChild is the least-overlap chooser as it was before the score
// cache: clone every child's key, extend each clone by the target and
// intersect it with every sibling. It is the reference the cached scorer
// must agree with, item for item. chooseChild holds the children's read
// locks while it runs.
func refChooseChild(n *inode, t target) int {
	snaps := make([]*keys.Key, len(n.children))
	for i, c := range n.children {
		snaps[i] = c.key.Clone()
	}
	best, bestOv, bestEnl := -1, 0.0, 0.0
	for i := range n.children {
		ext := snaps[i].Clone()
		if t.key == nil {
			ext.ExtendPoint(t.coords)
		} else {
			ext.ExtendKey(t.key)
		}
		ov := 0.0
		for j := range snaps {
			if j != i {
				ov += ext.OverlapVolume(snaps[j])
			}
		}
		enl := ext.Volume() - snaps[i].Volume()
		if best == -1 || ov < bestOv || (ov == bestOv && enl < bestEnl) {
			best, bestOv, bestEnl = i, ov, enl
		}
	}
	return best
}

// refKeyEnlargement is the clone-based enlargement AddShard used to pick
// the half of a split directory.
func refKeyEnlargement(base, k *keys.Key) float64 {
	if base.Empty() {
		return k.Volume()
	}
	ext := base.Clone()
	ext.ExtendKey(k)
	return ext.Volume() - base.Volume()
}

// streamDivisor shortens the equivalence streams (see race_test.go).
var streamDivisor = 1

// routeStream describes one seeded stream for the equivalence test.
type routeStream struct {
	name   string
	schema *hierarchy.Schema
	kind   keys.Kind
	mdsCap int
	dirCap int
	shards int // added before the first item
	items  int
	// every addEvery items (0 = never) a further shard joins with a key
	// built from the next few items, and an existing shard is expanded
	// by a remote key, until extra shards have joined.
	addEvery, extra int
}

// TestRouteEquivalence drives the cached scorer and the reference
// chooser with the same seeded streams: every item must go to the same
// shard, with the same grew flag, and the leaf keys must end up equal.
func TestRouteEquivalence(t *testing.T) {
	tpc := tpcds.Schema()
	streams := []routeStream{
		{name: "tpcds", schema: tpc, kind: keys.MDS, mdsCap: 4, dirCap: 8, shards: 8, items: 131072},
		{name: "mbr", schema: tpc, kind: keys.MBR, dirCap: 8, shards: 8, items: 16384},
		{name: "mdscap1", schema: tpc, kind: keys.MDS, mdsCap: 1, dirCap: 8, shards: 8, items: 16384},
		{name: "mdscap8", schema: tpc, kind: keys.MDS, mdsCap: 8, dirCap: 8, shards: 8, items: 16384},
		{name: "synthetic16", schema: tpcds.SyntheticSchema(16, 3, 6), kind: keys.MDS, mdsCap: 4, dirCap: 8, shards: 8, items: 16384},
		{name: "twolevel", schema: tpc, kind: keys.MDS, mdsCap: 4, dirCap: 8, shards: 8, items: 32768, addEvery: 1024, extra: 24},
		{name: "threelevel", schema: tpc, kind: keys.MDS, mdsCap: 4, dirCap: 3, shards: 2, items: 16384, addEvery: 512, extra: 24},
	}
	for _, s := range streams {
		s := s
		t.Run(s.name, func(t *testing.T) {
			fast := NewIndex(s.schema, s.kind, s.mdsCap, s.dirCap)
			ref := NewIndex(s.schema, s.kind, s.mdsCap, s.dirCap)
			ref.chooser = refChooseChild
			addShard := func(id ShardID, k *keys.Key) {
				t.Helper()
				if err := fast.AddShard(id, k); err != nil {
					t.Fatal(err)
				}
				if err := ref.AddShard(id, k); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < s.shards; i++ {
				addShard(ShardID(i), nil)
			}
			gen := tpcds.NewGenerator(s.schema, 1, 1.1)
			next, addEvery := s.shards, s.addEvery/streamDivisor
			for n := 0; n < s.items/streamDivisor; n++ {
				if addEvery > 0 && n%addEvery == addEvery-1 && next < s.shards+s.extra {
					k := keys.NewPoint(s.kind, s.mdsCap, gen.Item().Coords)
					for r := 0; r < n%5; r++ {
						k.ExtendPoint(gen.Item().Coords)
					}
					addShard(ShardID(next), k)
					grown := keys.NewPoint(s.kind, s.mdsCap, gen.Item().Coords)
					victim := ShardID(n % next)
					fast.ExpandLeaf(victim, grown, uint64(n))
					ref.ExpandLeaf(victim, grown, uint64(n))
					next++
				}
				coords := gen.Item().Coords
				gotID, gotGrew, err := fast.RouteInsert(coords)
				if err != nil {
					t.Fatal(err)
				}
				wantID, wantGrew, err := ref.RouteInsert(coords)
				if err != nil {
					t.Fatal(err)
				}
				if gotID != wantID || gotGrew != wantGrew {
					t.Fatalf("item %d %v: routed to shard %d (grew %v), reference %d (grew %v)", n, coords, gotID, gotGrew, wantID, wantGrew)
				}
			}
			if next != s.shards+s.extra {
				t.Fatalf("only %d of %d shards joined", next, s.shards+s.extra)
			}
			for i := 0; i < next; i++ {
				gk, gc, _ := fast.LeafSnapshot(ShardID(i))
				wk, wc, _ := ref.LeafSnapshot(ShardID(i))
				if !gk.Equal(wk) || gc != wc {
					t.Fatalf("shard %d: key %v count %d, reference %v count %d", i, gk, gc, wk, wc)
				}
			}
			if err := fast.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if s.extra > 0 && depth(fast) < 2 {
				t.Fatalf("tree has depth %d, want directories below the root", depth(fast))
			}
		})
	}
}

// depth counts the directory levels above the leaves.
func depth(x *Index) int {
	n, d := x.root, 0
	for !n.leaf && len(n.children) > 0 {
		n, d = n.children[0], d+1
	}
	return d
}

// TestEnlargementMatchesReference compares the scorer's enlargement with
// the clone-based one on random key pairs, empty keys included.
func TestEnlargementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := testSchema(t)
	randKey := func(kind keys.Kind) *keys.Key {
		k := keys.NewEmpty(kind, 2, 3)
		for i := rng.Intn(6); i > 0; i-- {
			k.ExtendPoint([]uint64{uint64(rng.Intn(100)), uint64(rng.Intn(40))})
		}
		return k
	}
	var sc scoreCache
	for i := 0; i < 2000; i++ {
		kind := keys.Kind(i % 2)
		base, k := randKey(kind), randKey(kind)
		want := refKeyEnlargement(base, k)
		if got := sc.enlargement(base, target{key: k}, s.NumDims()); got != want {
			t.Fatalf("enlargement(%v, %v) = %v, reference %v", base, k, got, want)
		}
	}
}

// checkScores returns a chooser that scores with the cache and then
// verifies, under the same locks, that every cached factor equals one
// computed afresh from the children's current keys — so a key mutation
// that did not move keys.Key.Gen shows up as a mismatch.
func checkScores(x *Index, fail func(error)) func(n *inode, t target) int {
	return func(n *inode, t target) int {
		dims := x.schema.NumDims()
		i := n.scores.choose(n.children, t, dims)
		if err := n.scores.verify(n.children, dims); err != nil {
			fail(err)
		}
		return i
	}
}

func (sc *scoreCache) verify(children []*inode, dims int) error {
	n := len(children)
	for i, c := range children {
		if sc.from[i] != c.key || sc.gen[i] != c.key.Gen() {
			return fmt.Errorf("slot %d stamped with a key other than its child's", i)
		}
		if sc.vols[i] != c.key.Volume() {
			return fmt.Errorf("slot %d: cached volume %v, key has %v", i, sc.vols[i], c.key.Volume())
		}
		for d := 0; d < dims; d++ {
			if l := keys.SetLen(c.key.Set(d)); sc.lens[i*dims+d] != l {
				return fmt.Errorf("slot %d dim %d: cached length %d, key has %d", i, d, sc.lens[i*dims+d], l)
			}
			for j, o := range children {
				if l := keys.IntersectLen(c.key.Set(d), o.key.Set(d)); j != i && sc.inter[(i*n+j)*dims+d] != l {
					return fmt.Errorf("slots %d,%d dim %d: cached intersection %d, keys share %d", i, j, d, sc.inter[(i*n+j)*dims+d], l)
				}
			}
		}
	}
	return nil
}

// preloaded returns a TPC-DS index of 8 shards after routing n items,
// and a further stream of items to route.
func preloaded(tb testing.TB, n, more int) (*Index, [][]uint64) {
	tb.Helper()
	s := tpcds.Schema()
	idx := NewIndex(s, keys.MDS, keys.DefaultMDSCap, 8)
	for i := 0; i < 8; i++ {
		if err := idx.AddShard(ShardID(i), nil); err != nil {
			tb.Fatal(err)
		}
	}
	gen := tpcds.NewGenerator(s, 1, 1.1)
	for i := 0; i < n; i++ {
		if _, _, err := idx.RouteInsert(gen.Item().Coords); err != nil {
			tb.Fatal(err)
		}
	}
	stream := make([][]uint64, more)
	for i := range stream {
		stream[i] = gen.Item().Coords
	}
	return idx, stream
}

// TestRouteInsertAllocs counts work, not time: once the image has seen a
// preload, routing an item allocates nothing.
func TestRouteInsertAllocs(t *testing.T) {
	idx, stream := preloaded(t, 65536, 4096)
	i := 0
	allocs := testing.AllocsPerRun(len(stream)-1, func() {
		if _, _, err := idx.RouteInsert(stream[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("RouteInsert allocates %v times per item after a preload, want 0", allocs)
	}
}

func BenchmarkRouteInsert(b *testing.B) {
	idx, stream := preloaded(b, 65536, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.RouteInsert(stream[i%len(stream)]); err != nil {
			b.Fatal(err)
		}
	}
}
