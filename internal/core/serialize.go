package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hierarchy"
	"repro/internal/keys"
	"repro/internal/wire"
)

// shardMagic guards against decoding unrelated blobs as shards.
const shardMagic = "VOLAPSHARD1"

// Serialize flattens the tree store into a binary blob (§III-E
// SerializeShard): configuration, schema, and all items.
func (t *tree) Serialize() []byte { return serializeStore(t) }

// serializeStore implements Serialize for any store by streaming its
// leaf blocks' columns into the blob.
func serializeStore(s blockStore) []byte {
	cfg := s.Config()
	w := wire.NewWriter(64 + int(s.Count())*(cfg.Schema.NumDims()*4+8))
	w.String(shardMagic)
	w.Uint8(uint8(cfg.Store))
	w.Uint8(uint8(cfg.Keys))
	w.Uvarint(uint64(cfg.MDSCap))
	w.Uvarint(uint64(cfg.LeafCapacity))
	w.Uvarint(uint64(cfg.DirCapacity))
	w.Uint8(uint8(cfg.SplitPolicy))
	cfg.Schema.Encode(w)
	w.Uint64(cfg.Schema.Fingerprint())
	// The item count precedes the items but is known only once they are
	// written (an insert may land during the pass): reserve the longest
	// varint for it and close the gap after.
	at := w.Len()
	var pad [binary.MaxVarintLen64]byte
	w.Raw(pad[:])
	var count uint64
	s.eachBlock(func(b *block) bool {
		for i := 0; i < b.n; i++ {
			for d := 0; d < b.dims; d++ {
				w.Uvarint(b.cols[d*b.stride+i])
			}
			w.Float64(b.meas[i])
		}
		count += uint64(b.n)
		return true
	})
	out := w.Bytes()
	n := binary.PutUvarint(out[at:], count)
	copy(out[at+n:], out[at+len(pad):])
	return out[:len(out)-len(pad)+n]
}

// DeserializeStore rebuilds a store from a Serialize blob (§III-E
// DeserializeShard). The data is bulk-loaded, so a deserialized Hilbert
// PDC tree comes back packed. Bytes beyond the store's own fields are
// ignored, so composite blobs (store + rollup trailer) decode too.
func DeserializeStore(b []byte) (Store, error) {
	s, _, err := DeserializeStoreTrailer(b)
	return s, err
}

// DeserializeStoreTrailer is DeserializeStore returning any bytes the
// blob carries beyond the serialized store — the rollup trailer of a
// composite shard image, empty for a plain store blob.
func DeserializeStoreTrailer(b []byte) (Store, []byte, error) {
	r := wire.NewReader(b)
	if r.String() != shardMagic {
		return nil, nil, errors.New("core: not a serialized shard")
	}
	cfg := Config{
		Store:        StoreKind(r.Uint8()),
		Keys:         keys.Kind(r.Uint8()),
		MDSCap:       int(r.Uvarint()),
		LeafCapacity: int(r.Uvarint()),
		DirCapacity:  int(r.Uvarint()),
		SplitPolicy:  SplitPolicy(r.Uint8()),
	}
	schema, err := hierarchy.DecodeSchema(r)
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard schema: %w", err)
	}
	cfg.Schema = schema
	if fp := r.Uint64(); fp != schema.Fingerprint() {
		return nil, nil, errors.New("core: shard schema fingerprint mismatch")
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	dims := schema.NumDims()
	// Each item needs at least dims+8 bytes; reject counts the buffer
	// cannot possibly hold before allocating for them.
	if n > uint64(r.Remaining())/uint64(dims+8)+1 {
		return nil, nil, fmt.Errorf("core: shard claims %d items, buffer too small", n)
	}
	if cfg.LeafCapacity > 1<<20 || cfg.DirCapacity > 1<<20 || cfg.MDSCap > 1<<20 {
		return nil, nil, errors.New("core: implausible shard configuration")
	}
	items := make([]Item, 0, n)
	for i := uint64(0); i < n; i++ {
		coords := make([]uint64, dims)
		for d := range coords {
			coords[d] = r.Uvarint()
		}
		m := r.Float64()
		if r.Err() != nil {
			return nil, nil, fmt.Errorf("core: shard truncated at item %d: %w", i, r.Err())
		}
		items = append(items, Item{Coords: coords, Measure: m})
	}
	s, err := NewStore(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := s.BulkLoad(items); err != nil {
		return nil, nil, err
	}
	return s, b[len(b)-r.Remaining():], nil
}
