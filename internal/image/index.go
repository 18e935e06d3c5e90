package image

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/hierarchy"
	"repro/internal/keys"
)

// Index is a server's local image (§III-C): a modified PDC tree whose
// leaves are shards. The leaf set is fixed by the global image — an
// insertion expands a leaf's bounding box but never splits it — and a
// separate map from shard ID to leaf supports the bottom-up expansion
// used during synchronization.
//
// Concurrency: routing operations use the same lock-coupling discipline
// as the shard trees (insert routing holds at most two node write locks,
// plus read locks on the children it scores; query routing read-locks a
// frontier). Structural operations (AddShard)
// and bottom-up expansions additionally serialize on structMu so that
// parent pointers never change under an upward walker; the upward walk
// itself holds only one node lock at a time, which — exactly as the paper
// notes — lets the enclosure invariant be violated transiently without
// ever hiding data from queries.
type Index struct {
	schema *hierarchy.Schema
	kind   keys.Kind
	mdsCap int
	dirCap int

	structMu sync.Mutex // serializes AddShard and ExpandLeaf

	anchor sync.RWMutex
	root   *inode

	leafMu sync.RWMutex
	leaves map[ShardID]*inode

	// chooser, when set by a test, replaces the cached scorer in
	// chooseChild.
	chooser func(n *inode, t target) int
}

type inode struct {
	mu       sync.RWMutex
	key      *keys.Key
	parent   *inode
	children []*inode
	scores   scoreCache // directories only

	leaf  bool
	shard ShardID
	count uint64
}

// ErrNoShards is returned by RouteInsert on an empty index.
var ErrNoShards = errors.New("image: no shards in local image")

// NewIndex builds an empty local image. dirCap bounds directory fan-out
// (0 = 8).
func NewIndex(schema *hierarchy.Schema, kind keys.Kind, mdsCap, dirCap int) *Index {
	if dirCap < 3 {
		dirCap = 8
	}
	idx := &Index{
		schema: schema,
		kind:   kind,
		mdsCap: mdsCap,
		dirCap: dirCap,
		leaves: make(map[ShardID]*inode),
	}
	idx.root = idx.newDir()
	return idx
}

func (x *Index) newDir() *inode {
	return &inode{key: keys.NewEmpty(x.kind, x.schema.NumDims(), x.mdsCap)}
}

// NumShards returns the number of leaves.
func (x *Index) NumShards() int {
	x.leafMu.RLock()
	defer x.leafMu.RUnlock()
	return len(x.leaves)
}

// Has reports whether the shard is present.
func (x *Index) Has(id ShardID) bool {
	x.leafMu.RLock()
	defer x.leafMu.RUnlock()
	_, ok := x.leaves[id]
	return ok
}

// Shards lists all shard IDs.
func (x *Index) Shards() []ShardID {
	x.leafMu.RLock()
	defer x.leafMu.RUnlock()
	out := make([]ShardID, 0, len(x.leaves))
	for id := range x.leaves {
		out = append(out, id)
	}
	return out
}

// LeafSnapshot returns a clone of the shard's current bounding key and
// its locally tracked count.
func (x *Index) LeafSnapshot(id ShardID) (*keys.Key, uint64, bool) {
	x.leafMu.RLock()
	n := x.leaves[id]
	x.leafMu.RUnlock()
	if n == nil {
		return nil, 0, false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.key.Clone(), n.count, true
}

// AddShard inserts a new leaf for the shard (empty key if k is nil).
// Directory nodes split preemptively on the way down, keeping all leaves
// at uniform depth.
func (x *Index) AddShard(id ShardID, k *keys.Key) error {
	x.leafMu.Lock()
	if _, dup := x.leaves[id]; dup {
		x.leafMu.Unlock()
		return fmt.Errorf("image: shard %d already present", id)
	}
	x.leafMu.Unlock()

	leaf := &inode{leaf: true, shard: id, key: keys.NewEmpty(x.kind, x.schema.NumDims(), x.mdsCap)}
	if k != nil {
		leaf.key.ExtendKey(k)
	}

	x.structMu.Lock()
	defer x.structMu.Unlock()

	x.anchor.Lock()
	cur := x.root
	cur.mu.Lock()
	if len(cur.children) >= x.dirCap {
		right := x.splitDir(cur)
		newRoot := x.newDir()
		newRoot.children = []*inode{cur, right}
		cur.parent, right.parent = newRoot, newRoot
		newRoot.key.ExtendKey(cur.key)
		newRoot.key.ExtendKey(right.key)
		x.root = newRoot
		newRoot.mu.Lock()
		cur.mu.Unlock()
		cur = newRoot
	}
	x.anchor.Unlock()

	for {
		cur.key.ExtendKey(leaf.key)
		if len(cur.children) == 0 || cur.children[0].leaf {
			leaf.parent = cur
			cur.children = append(cur.children, leaf)
			cur.mu.Unlock()
			break
		}
		t := target{key: leaf.key}
		i := x.chooseChild(cur, t)
		child := cur.children[i]
		child.mu.Lock()
		if len(child.children) >= x.dirCap {
			right := x.splitDir(child)
			right.parent = cur
			cur.children = append(cur.children, nil)
			copy(cur.children[i+2:], cur.children[i+1:])
			cur.children[i+1] = right
			// Route into the better half. child is write-locked by us and
			// right is not yet reachable by others (cur is write-locked),
			// so the keys are read directly.
			dims := x.schema.NumDims()
			if cur.scores.enlargement(right.key, t, dims) < cur.scores.enlargement(child.key, t, dims) {
				right.mu.Lock()
				child.mu.Unlock()
				child = right
			}
		}
		cur.mu.Unlock()
		cur = child
	}

	x.leafMu.Lock()
	x.leaves[id] = leaf
	x.leafMu.Unlock()
	return nil
}

// splitDir splits a full, write-locked directory node in place and
// returns the new right sibling (unlocked, parent unset). Children are
// ordered along the widest dimension; parent pointers of moved children
// are fixed under their own locks.
func (x *Index) splitDir(n *inode) *inode {
	// Order children by midpoint along the widest dimension of n's key.
	d := 0
	bestSpan := -1.0
	for dim := 0; dim < x.schema.NumDims(); dim++ {
		if n.key.Empty() {
			break
		}
		b := n.key.Bounds(dim)
		span := float64(b.Len()) / float64(x.schema.Dim(dim).LeafCount())
		if span > bestSpan {
			d, bestSpan = dim, span
		}
	}
	mids := func(c *inode) uint64 {
		c.mu.RLock()
		defer c.mu.RUnlock()
		if c.key.Empty() {
			return 0
		}
		b := c.key.Bounds(d)
		return b.Lo + b.Hi
	}
	// Insertion sort (fan-outs are small).
	for i := 1; i < len(n.children); i++ {
		for j := i; j > 0 && mids(n.children[j]) < mids(n.children[j-1]); j-- {
			n.children[j], n.children[j-1] = n.children[j-1], n.children[j]
		}
	}
	mid := len(n.children) / 2
	right := x.newDir()
	right.children = append(right.children, n.children[mid:]...)
	n.children = n.children[:mid:mid]

	recompute := func(dir *inode) {
		dir.key = keys.NewEmpty(x.kind, x.schema.NumDims(), x.mdsCap)
		for _, c := range dir.children {
			c.mu.Lock()
			c.parent = dir
			dir.key.ExtendKey(c.key)
			c.mu.Unlock()
		}
	}
	recompute(n)
	recompute(right)
	return right
}

// chooseChild picks the subtree that minimizes the overlap its extension
// by t would cause with its siblings — the paper's least-overlap rule
// ("the high global cost of overlap dominates the cost of performing
// overlap calculations in the index", §III-C). The caller holds n's write
// lock; the children are read-locked together while they are scored.
func (x *Index) chooseChild(n *inode, t target) int {
	for _, c := range n.children {
		c.mu.RLock()
	}
	var i int
	if x.chooser != nil {
		i = x.chooser(n, t)
	} else {
		i = n.scores.choose(n.children, t, x.schema.NumDims())
	}
	for _, c := range n.children {
		c.mu.RUnlock()
	}
	return i
}

// RouteInsert picks the shard for a new item, expanding bounding boxes
// along the path (the local image is "changed by an insertion", §III-B).
// It reports whether the chosen leaf's box actually grew, which is what
// the server must eventually synchronize.
func (x *Index) RouteInsert(coords []uint64) (ShardID, bool, error) {
	x.anchor.RLock()
	cur := x.root
	cur.mu.Lock()
	x.anchor.RUnlock()
	if len(cur.children) == 0 {
		cur.mu.Unlock()
		return 0, false, ErrNoShards
	}
	for {
		if cur.leaf {
			grew := !cur.key.ContainsPoint(coords)
			cur.key.ExtendPoint(coords)
			cur.count++
			id := cur.shard
			cur.mu.Unlock()
			return id, grew, nil
		}
		cur.key.ExtendPoint(coords)
		i := x.chooseChild(cur, target{coords: coords})
		child := cur.children[i]
		child.mu.Lock()
		cur.mu.Unlock()
		cur = child
	}
}

// RouteQuery returns the shards whose bounding boxes touch the query
// rectangle (§III-C search).
func (x *Index) RouteQuery(q keys.Rect) []ShardID {
	x.anchor.RLock()
	cur := x.root
	cur.mu.RLock()
	x.anchor.RUnlock()
	var out []ShardID
	x.routeQuery(cur, q, &out)
	return out
}

// routeQuery visits the read-locked node n and releases it.
func (x *Index) routeQuery(n *inode, q keys.Rect, out *[]ShardID) {
	if n.leaf {
		if n.key.OverlapsRect(q) {
			*out = append(*out, n.shard)
		}
		n.mu.RUnlock()
		return
	}
	children := make([]*inode, len(n.children))
	for i, c := range n.children {
		c.mu.RLock()
		children[i] = c
	}
	n.mu.RUnlock()
	for _, c := range children {
		x.routeQuery(c, q, out)
	}
}

// ExpandLeaf applies a remote bounding-box expansion (and count) to the
// shard's leaf and propagates the expansion bottom-up toward the root,
// holding one node lock at a time (§III-C: the expansion "is propagated
// up the tree towards the root as necessary", transiently violating the
// enclosure invariant without hiding previously covered data).
func (x *Index) ExpandLeaf(id ShardID, k *keys.Key, count uint64) bool {
	x.leafMu.RLock()
	leaf := x.leaves[id]
	x.leafMu.RUnlock()
	if leaf == nil {
		return false
	}
	x.structMu.Lock()
	defer x.structMu.Unlock()

	leaf.mu.Lock()
	leaf.key.ExtendKey(k)
	if count > leaf.count {
		leaf.count = count
	}
	p := leaf.parent
	leaf.mu.Unlock()
	for p != nil {
		p.mu.Lock()
		p.key.ExtendKey(k)
		next := p.parent
		p.mu.Unlock()
		p = next
	}
	return true
}

// CheckInvariants verifies (on a quiescent index) that every leaf key is
// covered by the union of its ancestors' coverage for routing purposes:
// specifically that a query overlapping a leaf's key also overlaps every
// ancestor's key, which is the property RouteQuery relies on. It also
// checks the leaf map and uniform leaf depth.
func (x *Index) CheckInvariants() error {
	x.anchor.RLock()
	root := x.root
	x.anchor.RUnlock()
	leafDepth := -1
	seen := 0
	var walk func(n *inode, depth int, anc []*keys.Key) error
	walk = func(n *inode, depth int, anc []*keys.Key) error {
		n.mu.RLock()
		defer n.mu.RUnlock()
		if n.leaf {
			seen++
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("image: leaves at depths %d and %d", leafDepth, depth)
			}
			x.leafMu.RLock()
			mapped := x.leaves[n.shard]
			x.leafMu.RUnlock()
			if mapped != n {
				return fmt.Errorf("image: leaf map stale for shard %d", n.shard)
			}
			if !n.key.Empty() {
				for _, a := range anc {
					if !n.key.OverlapsKey(a) {
						return fmt.Errorf("image: ancestor key misses leaf %d", n.shard)
					}
				}
			}
			return nil
		}
		anc = append(anc, n.key)
		for _, c := range n.children {
			if err := walk(c, depth+1, anc); err != nil {
				return err
			}
			c.mu.RLock()
			if c.parent != n {
				c.mu.RUnlock()
				return fmt.Errorf("image: broken parent pointer")
			}
			c.mu.RUnlock()
		}
		return nil
	}
	if err := walk(root, 0, nil); err != nil {
		return err
	}
	if seen != x.NumShards() {
		return fmt.Errorf("image: walked %d leaves, map has %d", seen, x.NumShards())
	}
	return nil
}
